"""Ideal arithmetic, spectra and conductors."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .config import lattice_limit
from .errors import InternalCheckError, PreconditionError, SizeLimitError
from .rings import (
    FiniteRing,
    Ideal,
    distinct,
    enumerate_submodules,
    mask_elements,
    product_index,
    product_table_rows,
    span_of_products,
    subgroup_generators,
    subgroup_sum_mask,
    sum_of_orbits,
    _closed_ideal,
)

IdealLike = Union[Ideal, Sequence[int]]


def zero_ideal(ring: FiniteRing) -> Ideal:
    return _closed_ideal(ring, (ring.zero,))


def unit_ideal(ring: FiniteRing) -> Ideal:
    return _closed_ideal(ring, tuple(range(ring.order)))


def principal_ideal(ring: FiniteRing, x: int) -> Ideal:
    # Rx is already closed under addition: r1 x + r2 x = (r1 + r2) x
    return _closed_ideal(ring, tuple(int(i) for i in distinct(ring.mul[:, x], ring.order)))


def ideal_generated(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    mask = sum_of_orbits(ring.add, ring.mul, ring.zero, gens)
    return _closed_ideal(ring, mask_elements(mask))


def coerce_ideal(ring: FiniteRing, spec: IdealLike) -> Ideal:
    """spec itself if it is an Ideal of ring, else the ideal its elements generate."""
    if isinstance(spec, Ideal):
        if spec.ring is not ring:
            raise PreconditionError("ideal belongs to a different ring")
        return spec
    return ideal_generated(ring, spec)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    return _closed_ideal(a.ring, mask_elements(subgroup_sum_mask(a.ring, a.mask, b.mask)))


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    return _closed_ideal(a.ring, mask_elements(a.mask & b.mask))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Additive span of the pairwise products; it absorbs automatically."""
    _same_ring(a, b)
    ring = a.ring
    span = span_of_products(ring.add, ring.mul, ring.zero, a.elements, b.elements)
    return _closed_ideal(ring, mask_elements(span))


def ideal_power(a: Ideal, e: int) -> Ideal:
    if e < 1:
        raise PreconditionError("ideal power needs a positive exponent")
    out = a
    for _ in range(e - 1):
        out = ideal_product(out, a)
    return out


def colon(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) = elements r with r*b inside a, read on the mul columns at
    b's additive generators (subgroup_generators)."""
    _same_ring(a, b)
    ring = a.ring
    gens = subgroup_generators(ring.add, ring.zero, b.mask)
    good = a.mask[ring.mul[:, gens]].all(axis=1)
    return _closed_ideal(ring, mask_elements(good))


def annihilator(module) -> Ideal:
    """(0 : M), an ideal of the module's ring, read off the action columns
    at M's additive generators (subgroup_generators of all of M)."""
    gens = subgroup_generators(module.add, module.zero, np.ones(module.order, dtype=bool))
    good = (module.action[:, gens] == module.zero).all(axis=1)
    return _closed_ideal(module.ring, mask_elements(good))


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
    return [_closed_ideal(ring, mask_elements(m)) for m in enumerate_submodules(ring.add, ring.mul, ring.zero)]


def quotient_ideal_count(ideal: Ideal) -> int:
    """The number of ideals of R/I, read in R: by the correspondence theorem,
    the ideals of R that contain I.  Bounded as all_ideals(R/I) is."""
    ring = ideal.ring
    order = ring.order // ideal.order
    if order > lattice_limit():
        raise SizeLimitError(f"ideal enumeration bound exceeded for order {order}")
    return len(enumerate_submodules(ring.add, ring.mul, ring.zero, ideal.mask))


class SpectrumReport(NamedTuple):
    """Primes and nilradical of a finite ring.  Every prime of a finite ring
    is maximal, and the nilradical is the Jacobson radical."""

    ring: FiniteRing
    primes: tuple[Ideal, ...]
    nilradical: Ideal


def spectrum(ring: FiniteRing) -> SpectrumReport:
    """Primes and nilradical, read from the ring's cached prime_elements."""
    primes = tuple(_closed_ideal(ring, p) for p in ring.prime_elements)
    return SpectrumReport(ring, primes, _closed_ideal(ring, mask_elements(ring.nilpotents)))


def conductor(ext) -> Ideal:
    """(R : S) = {r in R : r*S lies in the image of R}; the largest ideal of
    S contained in R: product_conductor with S the product of itself alone."""
    top = ext.top
    return product_conductor(ext.base, (top,), (ext.embed.map,), (top.additive_generators,), ext.image_mask)


def product_conductor(base: FiniteRing, factors: Sequence[FiniteRing], parts: Sequence[np.ndarray],
                      gens: Sequence[np.ndarray], image_mask: np.ndarray) -> Ideal:
    """(R : S) for R embedded in S, the product of the factors, by the
    injective hom whose i-th component is parts[i] and whose image is
    image_mask; gens[i] generates the additive group of factors[i].

    The s with r*s in the image form a subgroup of S, so r lies in (R : S)
    when r*g does for each generator g of S: the elements with one nonzero
    component, taken from gens (_generator_columns).  Those columns of S's
    mul table are read at every r off the factors' tables
    (rings.product_table_rows), so S's own tables are never needed.  Raises
    InternalCheckError unless the image of the conductor C is an ideal of S:
    C is a subgroup of R, so its image is one of S (the hom is additive),
    and it absorbs on generator pairs (subgroup_generators)."""
    cols = _generator_columns(factors, gens)
    muls = [f.mul for f in factors]
    inside = np.concatenate([image_mask[rows].all(axis=1) for rows in product_table_rows(muls, parts, cols)])
    sub = subgroup_generators(base.add, base.zero, inside)
    held = np.zeros_like(image_mask)
    held[product_index([f.order for f in factors], [p[inside] for p in parts])] = True
    if sub is None or not all(held[rows].all() for rows in product_table_rows(muls, [p[sub] for p in parts], cols)):
        raise InternalCheckError("conductor image is not an ideal of the extension ring")
    return _closed_ideal(base, mask_elements(inside))


def _generator_columns(factors: Sequence[FiniteRing], gens: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Generators of the additive group of the product of the factors, as
    their components: for each i and each g of gens[i], the element whose
    i-th component is g and whose other components are zero."""
    owner = np.repeat(np.arange(len(factors)), [len(g) for g in gens])
    flat = np.concatenate(gens)
    return [np.where(owner == i, flat, f.zero) for i, f in enumerate(factors)]
