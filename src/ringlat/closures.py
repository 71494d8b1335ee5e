"""Seminormalization, t-closure and the canonical decomposition of a finite
ring extension.  A finite extension is integral, so the integral closure is
always the whole top and is not computed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .lattice import (
    Extension,
    Subalgebra,
    is_infra_integral,
    is_seminormal,
    is_subintegral,
    is_tclosed,
    realize,
)
from .rings import (
    FiniteRing,
    Ideal,
    ProductResult,
    RingHom,
    extend_closure_mask,
    is_local,
    mask_elements,
    pair_homs,
    product,
    subgroup_sum_mask,
)


def seminormalization(ext: Extension, _order: Optional[Sequence[int]] = None) -> Subalgebra:
    """Largest T in [R,S] with R in T subintegral.

    Fixpoint: adjoin any b with b^2 and b^3 already in T, take the subring
    closure, repeat to stability.  The result does not depend on the
    adjunction order."""
    top = ext.top
    mask = ext.image_mask.copy()
    idx = np.arange(top.order)
    sq = top.mul.diagonal()
    cube = top.mul[sq, idx]
    order = idx if _order is None else np.asarray(list(_order), dtype=np.intp)
    changed = True
    while changed:
        changed = False
        for b in order:
            if mask[b]:
                continue
            if mask[sq[b]] and mask[cube[b]]:
                mask = extend_closure_mask(top.order, mask, [int(b)], internal=(top.add, top.mul))
                changed = True
    return Subalgebra(ext, mask_elements(mask))


def t_closure(ext: Extension, _order: Optional[Sequence[int]] = None) -> Subalgebra:
    """Largest T in [R,S] with R in T infra-integral.

    Fixpoint: adjoin any b admitting r in the current T with b^2 - rb and
    b^3 - rb^2 in T; r ranges over T, not over R."""
    top = ext.top
    mask = ext.image_mask.copy()
    idx = np.arange(top.order)
    sq = top.mul.diagonal()
    cube = top.mul[sq, idx]
    order = idx if _order is None else np.asarray(list(_order), dtype=np.intp)
    changed = True
    while changed:
        changed = False
        for b in order:
            if mask[b]:
                continue
            members = np.flatnonzero(mask)
            rb = top.mul[members, b]
            rb2 = top.mul[members, sq[b]]
            c1 = mask[top.add[sq[b], top.neg[rb]]]
            c2 = mask[top.add[cube[b], top.neg[rb2]]]
            if bool((c1 & c2).any()):
                mask = extend_closure_mask(top.order, mask, [int(b)], internal=(top.add, top.mul))
                changed = True
    return Subalgebra(ext, mask_elements(mask))


@dataclass(frozen=True)
class CanonicalDecomposition:
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


def _segment_extension(lower: Subalgebra, upper: Subalgebra) -> Extension:
    """The extension T1 in T2 for nested nodes, realized on re-indexed rings."""
    low = realize(lower)
    up = realize(upper)
    lookup = {int(x): i for i, x in enumerate(upper.elements)}
    emb = np.asarray([lookup[int(x)] for x in low.include.map], dtype=np.int32)
    return Extension(low.ring, up.ring, RingHom(low.ring, up.ring, emb))


def canonical_decomposition(ext: Extension) -> CanonicalDecomposition:
    """Both closures, with every chain invariant asserted."""
    plus = seminormalization(ext)
    tcl = t_closure(ext)
    base = Subalgebra(ext, ext.image)
    top = Subalgebra(ext, tuple(range(ext.top.order)))
    if not (set(base.elements) <= set(plus.elements) <= set(tcl.elements)):
        raise InternalCheckError("canonical chain is not nested")
    if not is_subintegral(_segment_extension(base, plus)):
        raise InternalCheckError("R in +R is not subintegral")
    if plus.elements != tcl.elements:
        seg = _segment_extension(plus, tcl)
        if not (is_seminormal(seg) and is_infra_integral(seg)):
            raise InternalCheckError("+R in tR is not seminormal infra-integral")
    if not is_seminormal(_segment_extension(plus, top)):
        raise InternalCheckError("+R in S is not seminormal")
    if not is_tclosed(_segment_extension(tcl, top)):
        raise InternalCheckError("tR in S is not t-closed")
    return CanonicalDecomposition(base, plus, tcl, top)


@dataclass(frozen=True)
class DiagonalFormulasReport:
    """Closed-form checks for a diagonal into a product of subintegral
    extensions of a local base."""

    extension: Extension
    seminorm_ok: bool
    seminorm_expected: tuple[int, ...]
    seminorm_actual: tuple[int, ...]
    tclosure_ok: bool
    tclosure_expected: tuple[int, ...]
    tclosure_actual: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.seminorm_ok and self.tclosure_ok


def diagonal_into_factors(
    base: FiniteRing, parts: Sequence[Extension], max_order: Optional[int] = None
) -> tuple[Extension, ProductResult]:
    """The embedding r -> (f_1(r), ..., f_n(r)) into the product of tops."""
    if not parts:
        raise PreconditionError("diagonal into no factors")
    for e in parts:
        if e.base is not base:
            raise PreconditionError("factor extension does not start at the given base")
    pr = product([e.top for e in parts], max_order=max_order)
    return Extension(base, pr.ring, pair_homs(base, pr, [e.embed.map for e in parts])), pr


def verify_diagonal_formulas(
    base: FiniteRing, parts: Sequence[Extension], max_order: Optional[int] = None
) -> DiagonalFormulasReport:
    """Check +R = R + (N_1 x ... x N_n) and tR = product of per-factor
    t-closures for the diagonal of subintegral extensions of a local ring."""
    if is_local(base) is None:
        raise PreconditionError("diagonal formulas need a local base")
    maximals: list[Ideal] = []
    for e in parts:
        if not is_subintegral(e):
            raise PreconditionError("diagonal formulas need subintegral factors")
        n_i = is_local(e.top)
        if n_i is None:
            raise InternalCheckError("subintegral extension of a local ring has a non-local top")
        maximals.append(n_i)
    ext, pr = diagonal_into_factors(base, parts, max_order=max_order)
    top = ext.top

    prod_n = np.ones(top.order, dtype=bool)
    for n_i, comp in zip(maximals, pr.components):
        prod_n &= n_i.mask[comp]
    expected_plus = mask_elements(subgroup_sum_mask(top, ext.image_mask, prod_n))
    actual_plus = seminormalization(ext).elements

    prod_t = np.ones(top.order, dtype=bool)
    for e, comp in zip(parts, pr.components):
        t_i = t_closure(e)
        prod_t &= t_i.mask[comp]
    expected_t = mask_elements(prod_t)
    actual_t = t_closure(ext).elements

    return DiagonalFormulasReport(
        ext,
        expected_plus == actual_plus,
        expected_plus,
        actual_plus,
        expected_t == actual_t,
        expected_t,
        actual_t,
    )
