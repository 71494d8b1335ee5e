"""Separating ideal families, the extensions R in prod(R/I_j) they induce,
conductor formulas, minimality criteria and zero-conductor reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .closures import seminormalization
from .errors import InternalCheckError, PreconditionError
from .ideals import (
    IdealLike,
    coerce_ideal,
    colon,
    conductor,
    ideal_generated,
    ideal_intersection,
    ideal_sum,
    product_conductor,
    quotient_ideal_count,
    spectrum,
    zero_ideal,
)
from .lattice import Extension, Subalgebra, lower_extension
from .rings import (
    FiniteRing,
    Ideal,
    QuotientResult,
    RingHom,
    identity_hom,
    is_local,
    mask_elements,
    pair_homs,
    product,
    product_index,
    product_order,
    quotient,
    subgroup_sum_mask,
)

class SeparatingFamily(NamedTuple):
    """Ideals I_1..I_n of R, none equal to R, with zero intersection; their
    complements J_j = intersect_{k!=j} I_k; and the ideal sums the CRT
    formulas read: pair_sums[j][k] = I_j + I_k (I_j when k = j), widened[j] =
    I_j + J_j and complement_sum = sum(J_j).  Each sum is computed on its
    first read and each distinct sum once, as sums holds them by summands:
    the same pair recurs, as with two ideals J_1 = I_2 and J_2 = I_1, so
    every sum of the family is I_1 + I_2.

    A family whose intersection is nonzero is normalized by passing to the
    quotient; `normalized` records that this happened."""

    ring: FiniteRing
    ideals: tuple[Ideal, ...]
    complements: tuple[Ideal, ...]
    sums: dict[frozenset, Ideal]
    normalized: bool = False

    @property
    def n(self) -> int:
        return len(self.ideals)

    def _plus(self, a: Ideal, b: Ideal) -> Ideal:
        key = frozenset((a.elements, b.elements))
        if key not in self.sums:
            self.sums[key] = ideal_sum(a, b)
        return self.sums[key]

    @property
    def pair_sums(self) -> tuple[tuple[Ideal, ...], ...]:
        return tuple(tuple(i if i is k else self._plus(i, k) for k in self.ideals) for i in self.ideals)

    @property
    def widened(self) -> tuple[Ideal, ...]:
        return tuple(self._plus(i, j) for i, j in zip(self.ideals, self.complements))

    @property
    def complement_sum(self) -> Ideal:
        return reduce(self._plus, self.complements)


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
    comps = tuple(reduce(ideal_intersection, ids[:j] + ids[j + 1:]) for j in range(len(ids)))
    return SeparatingFamily(ring, ids, comps, {}, normalized)


def _images(qr: QuotientResult, ideals: Sequence[Ideal]) -> tuple[Ideal, ...]:
    """The images of ideals of R in the quotient R/I."""
    return tuple(Ideal(qr.ring, tuple(sorted(set(qr.projection.map[list(i.elements)].tolist()))))
                 for i in ideals)


@dataclass(frozen=True, eq=False)
class CrtExtension:
    """The extension R in prod(R/I_j) of a separating family, kept as its
    layout: the quotients R/I_j and the projections R -> R/I_j that are the
    components of the embedding.  The conductor is read off the quotients'
    tables; the top's tables and the embedding, a RingHom validated like any
    other, are built on the first read of extension."""

    family: SeparatingFamily
    factors: tuple[FiniteRing, ...]
    projections: tuple[np.ndarray, ...]
    conductor: Ideal

    @property
    def top_order(self) -> int:
        return math.prod(f.order for f in self.factors)

    @cached_property
    def extension(self) -> Extension:
        pr = product(self.factors)
        return Extension(pair_homs(self.family.ring, pr, self.projections))

    @property
    def is_isomorphism(self) -> bool:
        return self.top_order == self.family.ring.order


def make_crt(ring: FiniteRing, ideals: Sequence[IdealLike]) -> CrtExtension:
    """Quotients and the componentwise embedding into their product, whose
    order is bounded before anything of it is read.  A family may list an
    ideal more than once; each distinct quotient is built once."""
    fam = make_family(ring, ideals)
    base = fam.ring
    distinct_quotients = {i: quotient(base, i) for i in dict.fromkeys(fam.ideals)}
    qs = [distinct_quotients[i] for i in fam.ideals]
    factors = tuple(q.ring for q in qs)
    projections = tuple(q.projection.map for q in qs)
    orders = [f.order for f in factors]
    image_mask = np.zeros(product_order(orders), dtype=bool)
    image_mask[product_index(orders, projections)] = True
    if image_mask.sum() != base.order:
        raise InternalCheckError("zero-intersection family gave a non-injective embedding")
    # each projection is onto, so it maps the base's additive generators
    # onto generators of its factor
    gens = tuple(p[base.additive_generators] for p in projections)
    cond = product_conductor(base, factors, projections, gens, image_mask)
    return CrtExtension(fam, factors, projections, cond)


def conductor_by_formula(crt: CrtExtension) -> Ideal:
    """Conductor as sum(J_j), cross-checked against intersect(I_j + J_j) and
    the direct computation; any mismatch is an implementation bug."""
    fam = crt.family
    by_sum = fam.complement_sum
    by_meet = reduce(ideal_intersection, fam.widened)
    direct = crt.conductor
    if not (by_sum == by_meet == direct):
        raise InternalCheckError(
            f"conductor formula violation: sum {by_sum.elements} "
            f"meet {by_meet.elements} direct {direct.elements}"
        )
    return direct


def is_minimal_crt(crt: CrtExtension) -> Optional[tuple[int, int]]:
    """Minimality of R in prod(R/I_j) for n > 2: exactly one pair of ideals
    with maximal sum, every other pair comaximal.  Returns that pair, 0-based,
    when R in prod(R/I_j) is minimal, else None."""
    fam = crt.family
    if fam.n <= 2:
        raise PreconditionError("pair families need the two-ideal test (is_minimal_crt2)")
    primes = spectrum(fam.ring).primes
    maximal_pairs = []
    pair_sums = fam.pair_sums
    for j in range(fam.n):
        for k in range(j + 1, fam.n):
            s = pair_sums[j][k]
            if s.is_whole:
                continue
            if s in primes:
                maximal_pairs.append((j, k))
            else:
                return None
    return maximal_pairs[0] if len(maximal_pairs) == 1 else None


class Crt2Result(NamedTuple):
    minimal: bool  # R/(I+J) is a field
    predicted_count: int


def is_minimal_crt2(crt: CrtExtension) -> Crt2Result:
    """Two-ideal test: with zero intersection, R in R/I x R/J is minimal
    exactly when I + J is maximal.  The predicted node count is the ideal
    count of R/(I+J), which is 2 exactly in the minimal case."""
    fam = crt.family
    if fam.n != 2:
        raise PreconditionError("two-ideal test needs exactly two ideals")
    s = fam.pair_sums[0][1]
    return Crt2Result(s in spectrum(fam.ring).primes, quotient_ideal_count(s))


def weak_crt_check(crt: CrtExtension) -> tuple[bool, ...]:
    """Per j: I_j + intersect_{k!=j} I_k = intersect_{k!=j} (I_j + I_k)."""
    fam = crt.family
    return tuple(lhs == reduce(ideal_intersection, row[:j] + row[j + 1:])
                 for j, (lhs, row) in enumerate(zip(fam.widened, fam.pair_sums)))


class ReductionResult(NamedTuple):
    """Zero-conductor form of a family: base R/sum(J_j), ideals the images of
    I_j + J_j, factors with I_j + J_j = R dropped."""

    crt: Optional[CrtExtension]
    crt_isomorphism: bool
    dropped: tuple[int, ...]
    projection: Optional[RingHom]


def reduce_to_zero_conductor(crt: CrtExtension) -> ReductionResult:
    """The zero-conductor form of crt; crt itself, over the identity, when
    its conductor sum(J_j) is already zero."""
    fam = crt.family
    c = fam.complement_sum
    if c.is_zero:
        if not crt.conductor.is_zero:
            raise InternalCheckError("reduced family has nonzero conductor")
        return ReductionResult(crt, False, (), identity_hom(fam.ring))
    widened = fam.widened
    kept = [j for j in range(fam.n) if not widened[j].is_whole]
    sums = [widened[j] for j in kept]
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


class CrtSeminormalization(NamedTuple):
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
