"""Ideal arithmetic, spectra and conductors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .config import lattice_limit
from .errors import InternalCheckError, PreconditionError, SizeLimitError
from .rings import (
    FiniteRing,
    Ideal,
    closure_mask,
    enumerate_submodules,
    mask_elements,
    primitive_idempotents,
    span_of_products,
    subgroup_sum_mask,
)

IdealLike = Union[Ideal, Sequence[int]]


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, (ring.zero,))


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, tuple(range(ring.order)))


def principal_ideal(ring: FiniteRing, x: int) -> Ideal:
    # Rx is already closed under addition: r1 x + r2 x = (r1 + r2) x
    return Ideal(ring, tuple(int(i) for i in np.unique(ring.mul[:, x])))


def ideal_generated(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    mask = closure_mask(ring.order, list(gens) + [ring.zero], internal=(ring.add,), absorbing=(ring.mul,))
    return Ideal(ring, mask_elements(mask))


def coerce_ideal(ring: FiniteRing, spec: IdealLike) -> Ideal:
    """spec itself if it is an Ideal of ring, else the ideal its elements generate."""
    if isinstance(spec, Ideal):
        if spec.ring is not ring:
            raise PreconditionError("ideal belongs to a different ring")
        return spec
    return ideal_generated(ring, spec)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    return Ideal(a.ring, mask_elements(subgroup_sum_mask(a.ring, a.mask, b.mask)))


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    return Ideal(a.ring, mask_elements(a.mask & b.mask))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Additive span of the pairwise products; it absorbs automatically."""
    _same_ring(a, b)
    ring = a.ring
    span = span_of_products(ring.add, ring.mul, ring.zero, a.elements, b.elements)
    return Ideal(ring, mask_elements(span))


def ideal_power(a: Ideal, e: int) -> Ideal:
    if e < 1:
        raise PreconditionError("ideal power needs a positive exponent")
    out = a
    for _ in range(e - 1):
        out = ideal_product(out, a)
    return out


def colon(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) = elements r with r*b inside a."""
    _same_ring(a, b)
    ring = a.ring
    bi = np.asarray(b.elements, dtype=np.intp)
    good = a.mask[ring.mul[:, bi]].all(axis=1)
    return Ideal(ring, mask_elements(good))


def annihilator(module) -> Ideal:
    """(0 : M), an ideal of the module's ring, read off its action table."""
    good = (module.action == module.zero).all(axis=1)
    return Ideal(module.ring, mask_elements(good))


def contains(outer: Ideal, inner: Ideal) -> bool:
    return not bool((inner.mask & ~outer.mask).any())


def _same_ring(a: Ideal, b: Ideal) -> None:
    if a.ring is not b.ring:
        raise PreconditionError("ideals belong to different rings")


def all_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal: the submodules of R over itself, as the sumset join
    closure of the principal ideals.

    Ordered by cardinality, then lexicographically on the element tuple.
    """
    if ring.order > lattice_limit():
        raise SizeLimitError(f"ideal enumeration bound exceeded for order {ring.order}")
    return [Ideal(ring, mask_elements(m)) for m in enumerate_submodules(ring.add, ring.mul, ring.zero)]


@dataclass(frozen=True)
class SpectrumReport:
    """Primes, maximals, nilradical and Jacobson radical of a finite ring."""

    ring: FiniteRing
    primes: tuple[Ideal, ...]
    maximals: tuple[Ideal, ...]
    nilradical: Ideal
    jacobson: Ideal


def spectrum(ring: FiniteRing) -> SpectrumReport:
    """Primes, maximals, nilradical and Jacobson radical, from structure.

    A finite ring is Artinian, so it is the product of the local rings eR
    over its primitive idempotents e (Atiyah-Macdonald, Thm 8.7).  Every
    prime is therefore maximal, the one over e is {x : e*x nilpotent}, and
    the Jacobson radical equals the nilradical.  No ideal is enumerated.
    Primes are ordered by cardinality, then by element tuple."""
    nil = ring.nilpotents
    primes = [Ideal(ring, mask_elements(nil[ring.mul[e]])) for e in primitive_idempotents(ring)]
    primes.sort(key=lambda i: (i.order, i.elements))
    nilradical = Ideal(ring, mask_elements(nil))
    return SpectrumReport(ring, tuple(primes), tuple(primes), nilradical, nilradical)


def conductor(ext) -> Ideal:
    """(R : S) = {r in R : r*S lies in the image of R}; the largest ideal of
    S contained in R."""
    base, top, embed = ext.base, ext.top, ext.embed
    rows = top.mul[embed.map]
    inside = ext.image_mask[rows].all(axis=1)
    cond = Ideal(base, mask_elements(inside))
    cond_in_top = embed.map[np.asarray(cond.elements, dtype=np.intp)]
    if not Ideal.from_indices(top, cond_in_top, validate=False)._is_valid():
        raise InternalCheckError("conductor image is not an ideal of the extension ring")
    return cond
