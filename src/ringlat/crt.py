"""Separating ideal families, the extensions R in prod(R/I_j) they induce,
conductor formulas, minimality criteria and zero-conductor reduction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from .closures import seminormalization
from .errors import InternalCheckError, PreconditionError
from .ideals import (
    IdealLike,
    all_ideals,
    coerce_ideal,
    colon,
    conductor,
    ideal_generated,
    ideal_intersection,
    ideal_sum,
    zero_ideal,
)
from .lattice import Extension, Subalgebra, lower_extension
from .rings import (
    FiniteRing,
    Ideal,
    QuotientResult,
    RingHom,
    is_field,
    is_local,
    mask_elements,
    pair_homs,
    product,
    quotient,
    subgroup_sum_mask,
)

@dataclass(frozen=True)
class SeparatingFamily:
    """Ideals I_1..I_n of R, none equal to R, with zero intersection.

    A family whose intersection is nonzero is normalized by passing to the
    quotient; `normalized` records that this happened."""

    ring: FiniteRing
    ideals: tuple[Ideal, ...]
    complements: tuple[Ideal, ...]
    normalized: bool = False

    @property
    def n(self) -> int:
        return len(self.ideals)


def make_family(ring: FiniteRing, ideals: Sequence[IdealLike]) -> SeparatingFamily:
    if len(ideals) < 2:
        raise PreconditionError("separating family needs at least two ideals")
    ids = tuple(coerce_ideal(ring, s) for s in ideals)
    for i in ids:
        if i.is_whole:
            raise PreconditionError("invalid family: some ideal is the whole ring")
    inter = reduce(ideal_intersection, ids)
    normalized = not inter.is_zero
    if normalized:
        qr = quotient(ring, inter)
        ring = qr.ring
        ids = _images(qr, ids)
    comps = []
    for j in range(len(ids)):
        others = [ids[k] for k in range(len(ids)) if k != j]
        comps.append(reduce(ideal_intersection, others))
    return SeparatingFamily(ring, ids, tuple(comps), normalized)


def _images(qr: QuotientResult, ideals: Sequence[Ideal]) -> tuple[Ideal, ...]:
    """The images of ideals of R in the quotient R/I."""
    return tuple(Ideal.from_indices(qr.ring, qr.projection.map[list(i.elements)], validate=False)
                 for i in ideals)


@dataclass(frozen=True)
class CrtExtension:
    """The extension R in prod(R/I_j) of a separating family."""

    family: SeparatingFamily
    extension: Extension
    conductor: Ideal

    @property
    def is_isomorphism(self) -> bool:
        return self.extension.top.order == self.family.ring.order


def make_crt(ring: FiniteRing, ideals: Sequence[IdealLike]) -> CrtExtension:
    """Quotients, their product, and the componentwise embedding."""
    fam = make_family(ring, ideals)
    base = fam.ring
    qs = [quotient(base, i) for i in fam.ideals]
    pr = product([q.ring for q in qs])
    hom = pair_homs(base, pr, [q.projection.map for q in qs])
    if not hom.is_injective:
        raise InternalCheckError("zero-intersection family gave a non-injective embedding")
    ext = Extension(hom)
    return CrtExtension(fam, ext, conductor(ext))


def conductor_by_formula(crt: CrtExtension) -> Ideal:
    """Conductor as sum(J_j), cross-checked against intersect(I_j + J_j) and
    the direct computation; any mismatch is an implementation bug."""
    fam = crt.family
    by_sum = reduce(ideal_sum, fam.complements, zero_ideal(fam.ring))
    by_meet = reduce(ideal_intersection, [ideal_sum(i, j) for i, j in zip(fam.ideals, fam.complements)])
    direct = crt.conductor
    if not (by_sum == by_meet == direct):
        raise InternalCheckError(
            f"conductor formula violation: sum {by_sum.elements} "
            f"meet {by_meet.elements} direct {direct.elements}"
        )
    return direct


def _is_maximal(ring: FiniteRing, ideal: Ideal) -> bool:
    if ideal.is_whole:
        return False
    return is_field(quotient(ring, ideal).ring)


@dataclass(frozen=True)
class MinimalCrtResult:
    minimal: bool
    witness: Optional[tuple[int, int]]


def is_minimal_crt(crt: CrtExtension) -> MinimalCrtResult:
    """Minimality of R in prod(R/I_j) for n > 2: exactly one pair of ideals
    with maximal sum, every other pair comaximal.  Witness indices are
    0-based and lexicographically least."""
    fam = crt.family
    if fam.n <= 2:
        raise PreconditionError("pair families need the two-ideal test (is_minimal_crt2)")
    maximal_pairs = []
    for j in range(fam.n):
        for k in range(j + 1, fam.n):
            s = ideal_sum(fam.ideals[j], fam.ideals[k])
            if s.is_whole:
                continue
            if _is_maximal(fam.ring, s):
                maximal_pairs.append((j, k))
            else:
                return MinimalCrtResult(False, None)
    if len(maximal_pairs) == 1:
        return MinimalCrtResult(True, maximal_pairs[0])
    return MinimalCrtResult(False, None)


@dataclass(frozen=True)
class Crt2Result:
    minimal: bool
    quotient_is_field: bool
    predicted_count: int


def is_minimal_crt2(crt: CrtExtension) -> Crt2Result:
    """Two-ideal test: with zero intersection, R in R/I x R/J is minimal
    exactly when I + J is maximal.  The predicted node count is the ideal
    count of R/(I+J); the field case (count 2) is flagged."""
    fam = crt.family
    if fam.n != 2:
        raise PreconditionError("two-ideal test needs exactly two ideals")
    s = ideal_sum(fam.ideals[0], fam.ideals[1])
    if s.is_whole:
        return Crt2Result(False, False, 1)
    q = quotient(fam.ring, s).ring
    field = is_field(q)
    return Crt2Result(field, field, len(all_ideals(q)))


def weak_crt_check(crt: CrtExtension) -> tuple[bool, ...]:
    """Per j: I_j + intersect_{k!=j} I_k = intersect_{k!=j} (I_j + I_k)."""
    fam = crt.family
    out = []
    for j in range(fam.n):
        lhs = ideal_sum(fam.ideals[j], fam.complements[j])
        rhs = reduce(
            ideal_intersection,
            [ideal_sum(fam.ideals[j], fam.ideals[k]) for k in range(fam.n) if k != j],
        )
        out.append(lhs == rhs)
    return tuple(out)


@dataclass(frozen=True)
class ReductionResult:
    """Zero-conductor form of a family: base R/sum(J_j), ideals the images of
    I_j + J_j, factors with I_j + J_j = R dropped."""

    crt: Optional[CrtExtension]
    crt_isomorphism: bool
    dropped: tuple[int, ...]
    projection: Optional[RingHom]


def reduce_to_zero_conductor(crt: CrtExtension) -> ReductionResult:
    fam = crt.family
    c = reduce(ideal_sum, fam.complements, zero_ideal(fam.ring))
    kept: list[int] = []
    sums: list[Ideal] = []
    for j in range(fam.n):
        s = ideal_sum(fam.ideals[j], fam.complements[j])
        if not s.is_whole:
            kept.append(j)
            sums.append(s)
    if not kept:
        return ReductionResult(None, True, tuple(range(fam.n)), None)
    if len(kept) == 1:
        raise InternalCheckError(
            "reduction kept exactly one factor; a single surviving quotient "
            "forces a trivial base, contradicting its survival"
        )
    if c.is_whole:
        raise InternalCheckError("conductor is the whole ring but some factor survived")
    qr = quotient(fam.ring, c)
    reduced = make_crt(qr.ring, _images(qr, sums))
    if reduced.family.normalized:
        raise InternalCheckError("reduced family is not separating")
    if not reduced.conductor.is_zero:
        raise InternalCheckError("reduced family has nonzero conductor")
    dropped = tuple(j for j in range(fam.n) if j not in kept)
    return ReductionResult(reduced, False, dropped, qr.projection)


@dataclass(frozen=True)
class CrtSeminormalization:
    """T = R + M*prod for a zero-conductor family over a local ring, with the
    conductor identity (R:T) = (0:M)."""

    node: Subalgebra
    conductor_to_node: Ideal
    annihilator_of_maximal: Ideal


def seminormalization_of_crt(crt: CrtExtension) -> CrtSeminormalization:
    fam = crt.family
    m = is_local(fam.ring)
    if m is None:
        raise PreconditionError("seminormalization formula needs a local base")
    if not crt.conductor.is_zero:
        raise PreconditionError("seminormalization formula needs a zero conductor")
    ext = crt.extension
    top = ext.top
    gens = [int(ext.embed.map[x]) for x in m.elements]
    m_top = ideal_generated(top, gens)
    t_mask = subgroup_sum_mask(top, ext.image_mask, m_top.mask)
    node = Subalgebra(ext, mask_elements(t_mask))
    fixpoint = seminormalization(ext)
    if node.elements != fixpoint.elements:
        raise InternalCheckError("R + M*prod differs from the seminormalization fixpoint")
    cond = conductor(lower_extension(node))
    ann = colon(zero_ideal(fam.ring), m)
    if cond != ann:
        raise InternalCheckError("(R:T) differs from (0:M)")
    return CrtSeminormalization(node, cond, ann)
