"""Seminormalization, t-closure and the canonical decomposition of a finite
ring extension.  A finite extension is integral, so the integral closure is
always the whole top and is not computed."""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .lattice import (
    Extension,
    Subalgebra,
    SubalgebraRealization,
    is_infra_integral,
    is_seminormal,
    is_subintegral,
    is_tclosed,
    realize,
    seminormal_candidates,
    tclosed_candidates,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingHom,
    adjoin_all,
    is_local,
    mask_elements,
    pair_homs,
    product,
    product_components,
    subgroup_sum_mask,
)


def _fixpoint(ext: Extension, candidates: Callable[[FiniteRing, np.ndarray], np.ndarray]) -> Subalgebra:
    """Adjoin the candidates of a round one at a time (adjoin_all), until a
    round finds none.

    A candidate b of T is still a candidate of every larger subring that
    misses b, so every adjunction order stops at the same subring: the
    least one above R without candidates."""
    top = ext.top
    mask = ext.image_mask
    while True:
        new = candidates(top, mask)
        if not new.size:
            return Subalgebra(ext, mask_elements(mask))
        mask = adjoin_all(top, mask, new)


def seminormalization(ext: Extension) -> Subalgebra:
    """Largest T in [R,S] with R in T subintegral: the fixpoint of adjoining
    each b with b^2 and b^3 already in T."""
    return _fixpoint(ext, seminormal_candidates)


def t_closure(ext: Extension) -> Subalgebra:
    """Largest T in [R,S] with R in T infra-integral: the fixpoint of
    adjoining each b admitting r in the current T with b^2 - rb and
    b^3 - rb^2 in T; r ranges over T, not over R."""
    return _fixpoint(ext, tclosed_candidates)


class CanonicalDecomposition(NamedTuple):
    """The chain R in +R in tR in S."""

    base: Subalgebra
    seminormalization: Subalgebra
    tclosure: Subalgebra
    top: Subalgebra

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "canonical_decomposition",
            "base": list(self.base.elements),
            "seminormalization": list(self.seminormalization.elements),
            "t_closure": list(self.tclosure.elements),
            "top": list(self.top.elements),
        }

    def segments(self) -> dict[str, Extension]:
        """The extensions R in +R, +R in tR, +R in S and tR in S, on one
        realization per distinct node (each copies its node's tables; tR = S
        is common).  An inclusion lists its node's elements in increasing
        order, so a lower node's element embeds at its rank in the upper one."""
        nodes = (self.base, self.seminormalization, self.tclosure, self.top)
        distinct = {n.elements: n for n in nodes}
        real = {elems: realize(n) for elems, n in distinct.items()}
        base, plus, tcl, top = (real[n.elements] for n in nodes)

        def segment(lower: SubalgebraRealization, upper: SubalgebraRealization) -> Extension:
            emb = np.searchsorted(upper.include.map, lower.include.map)
            return Extension(RingHom(lower.ring, upper.ring, emb))

        return {"R<+R": segment(base, plus), "+R<tR": segment(plus, tcl),
                "+R<S": segment(plus, top), "tR<S": segment(tcl, top)}


def canonical_decomposition(ext: Extension) -> CanonicalDecomposition:
    """Both closures, with every chain invariant asserted."""
    plus = seminormalization(ext)
    tcl = t_closure(ext)
    dec = CanonicalDecomposition(Subalgebra(ext, ext.image), plus, tcl,
                                 Subalgebra(ext, tuple(range(ext.top.order))))
    if not (set(dec.base.elements) <= set(plus.elements) <= set(tcl.elements)):
        raise InternalCheckError("canonical chain is not nested")
    seg = dec.segments()
    if not is_subintegral(seg["R<+R"]):
        raise InternalCheckError("R in +R is not subintegral")
    if plus.elements != tcl.elements and not (is_seminormal(seg["+R<tR"])
                                              and is_infra_integral(seg["+R<tR"])):
        raise InternalCheckError("+R in tR is not seminormal infra-integral")
    if not is_seminormal(seg["+R<S"]):
        raise InternalCheckError("+R in S is not seminormal")
    if not is_tclosed(seg["tR<S"]):
        raise InternalCheckError("tR in S is not t-closed")
    return dec


class DiagonalFormulasReport(NamedTuple):
    """Closed-form checks for a diagonal into a product of subintegral
    extensions of a local base."""

    extension: Extension
    seminorm_expected: tuple[int, ...]
    seminorm_actual: tuple[int, ...]
    tclosure_expected: tuple[int, ...]
    tclosure_actual: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return (self.seminorm_expected == self.seminorm_actual
                and self.tclosure_expected == self.tclosure_actual)


def _shared_base(parts: Sequence[Extension]) -> FiniteRing:
    """The base that every part starts at."""
    if not parts:
        raise PreconditionError("diagonal into no factors")
    base = parts[0].base
    if any(e.base is not base for e in parts):
        raise PreconditionError("factor extensions do not all share one base")
    return base


def diagonal_into_factors(parts: Sequence[Extension]) -> Extension:
    """The embedding r -> (f_1(r), ..., f_n(r)) of the shared base into the
    product of tops, laid out as in product_components."""
    base = _shared_base(parts)
    pr = product([e.top for e in parts])
    return Extension(pair_homs(base, pr, [e.embed.map for e in parts]))


def verify_diagonal_formulas(parts: Sequence[Extension]) -> DiagonalFormulasReport:
    """Check +R = R + (N_1 x ... x N_n) and tR = product of per-factor
    t-closures for the diagonal of subintegral extensions of a local ring."""
    if is_local(_shared_base(parts)) is None:
        raise PreconditionError("diagonal formulas need a local base")
    maximals: list[Ideal] = []
    for e in parts:
        if not is_subintegral(e):
            raise PreconditionError("diagonal formulas need subintegral factors")
        n_i = is_local(e.top)
        if n_i is None:
            raise InternalCheckError("subintegral extension of a local ring has a non-local top")
        maximals.append(n_i)
    ext = diagonal_into_factors(parts)
    top = ext.top
    comps = product_components([e.top.order for e in parts], np.arange(top.order))

    prod_n = np.ones(top.order, dtype=bool)
    for n_i, comp in zip(maximals, comps):
        prod_n &= n_i.mask[comp]
    expected_plus = mask_elements(subgroup_sum_mask(top, ext.image_mask, prod_n))
    actual_plus = seminormalization(ext).elements

    prod_t = np.ones(top.order, dtype=bool)
    for e, comp in zip(parts, comps):
        t_i = t_closure(e)
        prod_t &= t_i.mask[comp]
    expected_t = mask_elements(prod_t)
    actual_t = t_closure(ext).elements

    return DiagonalFormulasReport(ext, expected_plus, actual_plus, expected_t, actual_t)
