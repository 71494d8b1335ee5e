"""Set partitions, Bell and Stirling numbers, the partition/subalgebra
correspondence for K in K^n, and lambda-matrix enumeration of algebra
morphisms R^p -> R^n."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional, Sequence

import numpy as np

from .errors import InternalCheckError, PreconditionError, SizeLimitError
from .lattice import Extension, Subalgebra
from .rings import (FiniteRing, RingHom, idempotents, local_decomposition, mask_elements, product,
                    product_components, product_index)

PARTITION_BOUND = 12


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering {1..n}, ordered by least element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __str__(self):
        return "/".join(",".join(str(i) for i in b) for b in self.blocks)


def _check_bound(n: int) -> None:
    if n < 1:
        raise PreconditionError("partition ground set must be nonempty")
    if n > PARTITION_BOUND:
        raise SizeLimitError(f"partition enumeration bound is n <= {PARTITION_BOUND}")


def _rgs_to_partition(n: int, rgs: Sequence[int]) -> Partition:
    blocks: list[list[int]] = []
    for i, b in enumerate(rgs):
        while b >= len(blocks):
            blocks.append([])
        blocks[b].append(i + 1)
    return Partition(n, tuple(tuple(b) for b in blocks))


def partitions(n: int) -> list[Partition]:
    """All partitions of {1..n}, generated as restricted-growth strings in
    lexicographic order; that order is the canonical one."""
    _check_bound(n)
    out: list[Partition] = []

    def rec(prefix: list[int], top: int) -> None:
        if len(prefix) == n:
            out.append(_rgs_to_partition(n, prefix))
            return
        for b in range(top + 2):
            prefix.append(b)
            rec(prefix, max(top, b))
            prefix.pop()

    rec([0], 0)
    return out


def partitions_into(n: int, p: int) -> list[Partition]:
    _check_bound(n)
    return [q for q in partitions(n) if q.block_count == p]


def bell(n: int) -> int:
    return len(partitions(n))


def stirling2(n: int, p: int) -> int:
    if p < 0 or p > n:
        return 0
    return len(partitions_into(n, p))


def stirling2_by_recurrence(n: int, p: int) -> int:
    """Independent oracle: S(n,p) = p*S(n-1,p) + S(n-1,p-1)."""
    if n == 0:
        return 1 if p == 0 else 0
    if p <= 0 or p > n:
        return 0
    return p * stirling2_by_recurrence(n - 1, p) + stirling2_by_recurrence(n - 1, p - 1)


def bell_by_recurrence(n: int) -> int:
    """Independent oracle: B_n as the row sum of Stirling numbers."""
    return sum(stirling2_by_recurrence(n, p) for p in range(n + 1))


def partition_to_subalgebra(ext: Extension, part: Partition) -> Subalgebra:
    """Tuples of K^n constant on each block of the partition."""
    base, top = ext.base, ext.top
    n = part.n
    if base.order ** n != top.order:
        raise PreconditionError("extension is not a matching n-th power")
    comps = product_components([base.order] * n, np.arange(top.order))
    ok = np.ones(top.order, dtype=bool)
    for block in part.blocks:
        ref = comps[block[0] - 1]
        for i in block[1:]:
            ok &= comps[i - 1] == ref
    return Subalgebra(ext, mask_elements(ok))


# ---------------------------------------------------------------------------
# lambda matrices

@dataclass(frozen=True)
class LambdaMatrix:
    """n x p matrix over R with idempotent entries, orthogonal within each
    row, each row summing to 1."""

    ring: FiniteRing
    entries: tuple[tuple[int, ...], ...]  # n rows, p columns

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def p(self) -> int:
        return len(self.entries[0])

    def validate(self) -> None:
        r = self.ring
        for row in self.entries:
            for j, a in enumerate(row):
                if r.mul[a, a] != a:
                    raise PreconditionError("matrix entry is not idempotent")
                for k in range(j + 1, len(row)):
                    if r.mul[a, row[k]] != r.zero:
                        raise PreconditionError("row entries are not orthogonal")
            total = r.zero
            for a in row:
                total = int(r.add[total, a])
            if total != r.one:
                raise PreconditionError("row does not sum to 1")


def _orthogonal_rows(ring: FiniteRing, p: int) -> list[tuple[int, ...]]:
    """Ordered p-tuples of pairwise-orthogonal idempotents summing to 1."""
    idems = [e.index for e in idempotents(ring)]
    rows: list[tuple[int, ...]] = []

    def rec(chosen: list[int], total: int) -> None:
        if len(chosen) == p:
            if total == ring.one:
                rows.append(tuple(chosen))
            return
        for e in idems:
            if all(ring.mul[e, c] == ring.zero for c in chosen):
                rec(chosen + [e], int(ring.add[total, e]))

    rec([], ring.zero)
    return rows


def enumerate_homal(ring: FiniteRing, p: int, n: int,
                    max_matrices: int = 2_000_000) -> list[LambdaMatrix]:
    """All algebra morphisms R^p -> R^n, as their lambda-matrices.  The three
    row conditions are independent across rows, so matrices are cartesian
    products of row choices."""
    if p < 1 or n < 1:
        raise PreconditionError("need p, n >= 1")
    rows = _orthogonal_rows(ring, p)
    if len(rows) ** n > max_matrices:
        raise SizeLimitError(f"{len(rows)}^{n} matrices exceed the enumeration bound")
    return [LambdaMatrix(ring, combo) for combo in iproduct(rows, repeat=n)]


def homal_to_hom(mat: LambdaMatrix, source: FiniteRing, target: FiniteRing) -> RingHom:
    """The morphism with phi(f_j) = sum_i a_{i,j} e_i, as a map of the
    product rings R^p -> R^n built by rings.product."""
    r = mat.ring
    p, n = mat.p, mat.n
    if source.order != r.order ** p or target.order != r.order ** n:
        raise PreconditionError("product rings do not match the matrix shape")
    digits = product_components([r.order] * p, np.arange(source.order))
    comp = []
    for i in range(n):
        acc = np.full(source.order, r.zero, dtype=np.intp)
        for j in range(p):
            term = r.mul[mat.entries[i][j], digits[j]]
            acc = r.add[acc, term]
        comp.append(acc)
    return RingHom(source, target, product_index([r.order] * n, comp))


def lambda_of_hom(hom: RingHom, ring: FiniteRing, p: int, n: int) -> LambdaMatrix:
    """Read the matrix back off a morphism: a_{i,j} = component i of
    phi(f_j)."""
    entries = []
    cols = []
    for j in range(p):
        f_j = product_index([ring.order] * p, [ring.one if k == j else ring.zero for k in range(p)])
        cols.append([int(c) for c in product_components([ring.order] * n, int(hom.map[f_j]))])
    for i in range(n):
        entries.append(tuple(cols[j][i] for j in range(p)))
    return LambdaMatrix(ring, tuple(entries))


@dataclass(frozen=True)
class ExalClass:
    """Injective morphisms sharing one image subalgebra of R^n."""

    representative: LambdaMatrix
    image: tuple[int, ...]
    size: int


@dataclass(frozen=True)
class ExalReport:
    ring: FiniteRing
    p: int
    n: int
    classes: tuple[ExalClass, ...]
    injective_matrices: int
    homal_size: int

    @property
    def count(self) -> int:
        return len(self.classes)


def enumerate_exal(ring: FiniteRing, p: int, n: int,
                   max_matrices: int = 2_000_000) -> ExalReport:
    """Injective morphisms R^p -> R^n, grouped by image.

    Two injective morphisms have the same image exactly when they differ by
    an algebra automorphism of the source, so the class count is the count
    of embedded copies of R^p."""
    mats = enumerate_homal(ring, p, n, max_matrices=max_matrices)
    source = product([ring] * p).ring
    target = product([ring] * n).ring
    by_image: dict[tuple[int, ...], list[LambdaMatrix]] = {}
    injective = 0
    for mat in mats:
        hom = homal_to_hom(mat, source, target)
        if not hom.is_injective:
            continue
        injective += 1
        key = tuple(int(v) for v in np.unique(hom.map))
        by_image.setdefault(key, []).append(mat)
    classes = tuple(
        ExalClass(members[0], image, len(members))
        for image, members in sorted(by_image.items())
    )
    return ExalReport(ring, p, n, classes, injective, len(mats))


@dataclass(frozen=True)
class ExalBoundReport:
    count: int
    stirling: int
    minimal_prime_count: int
    bound: int
    connected: bool


def exal_bound_check(ring: FiniteRing, p: int, n: int,
                     max_matrices: int = 2_000_000) -> ExalBoundReport:
    """|Exal| against S(n,p)^(number of minimal primes); equality demanded
    for connected rings."""
    rep = enumerate_exal(ring, p, n, max_matrices=max_matrices)
    m = len(local_decomposition(ring).factors)
    s = stirling2(n, p)
    bound = s ** m
    if rep.count > bound:
        raise InternalCheckError(f"|Exal| = {rep.count} exceeds the bound {bound}")
    connected = m == 1
    if connected and rep.count != s:
        raise InternalCheckError(
            f"connected ring with |Exal| = {rep.count} != S({n},{p}) = {s}"
        )
    return ExalBoundReport(rep.count, s, m, bound, connected)
