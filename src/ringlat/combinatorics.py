"""Set partitions, Bell and Stirling numbers, the partition/subalgebra
correspondence for K in K^n, and lambda-matrix enumeration of algebra
morphisms R^p -> R^n."""

from __future__ import annotations

from itertools import product as iproduct
from typing import NamedTuple, Sequence

import numpy as np

from .config import arith_limit
from .errors import InternalCheckError, PreconditionError, SizeLimitError
from .lattice import Extension, Subalgebra
from .rings import (ELEMENT, FiniteRing, RingHom, idempotents, mask_elements, product,
                    product_components, product_index)

PARTITION_BOUND = 12
MATRIX_BOUND = 2_000_000
# entries of one block of exal maps, the budget of RingHom validation
EXAL_CHUNK = 1 << 21


class Partition(NamedTuple):
    """Disjoint nonempty blocks covering {1..n}, ordered by least element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

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


def _growth_strings(n: int) -> np.ndarray:
    """The restricted-growth strings of length n, one per row, in
    lexicographic order: a string with largest letter m goes on with each of
    0..m+1."""
    _check_bound(n)
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(n - 1):
        width = rows.max(axis=1) + 2
        parent = np.repeat(np.arange(len(rows)), width)
        letter = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        rows = np.column_stack([rows[parent], letter.astype(np.int8)])
    return rows


def partitions(n: int) -> list[Partition]:
    """All partitions of {1..n}, from their restricted-growth strings in
    lexicographic order; that order is the canonical one.  SizeLimitError
    before any record is built when there are more than MATRIX_BOUND
    (Bell(12) is 4,213,597, about 2 GB of records)."""
    strings = _growth_strings(n)
    if len(strings) > MATRIX_BOUND:
        raise SizeLimitError(f"Bell({n}) = {len(strings)} partitions exceed the enumeration bound")
    return [_rgs_to_partition(n, s) for s in strings.tolist()]


def bell(n: int) -> int:
    return len(_growth_strings(n))


def stirling2(n: int, p: int) -> int:
    """S(n, p), the partitions of {1..n} into p blocks; n is checked against
    the partition bounds first, whatever p is."""
    _check_bound(n)
    if p < 0 or p > n:
        return 0
    return int((_growth_strings(n).max(axis=1) == p - 1).sum())


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

class LambdaMatrix(NamedTuple):
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


def _orthogonal_rows(ring: FiniteRing, p: int) -> list[tuple[int, ...]]:
    """Ordered p-tuples of pairwise-orthogonal idempotents summing to 1."""
    idems = idempotents(ring)
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


def _homal_rows(ring: FiniteRing, p: int, n: int) -> list[tuple[int, ...]]:
    """The lambda-rows of R^p -> R, after the size checks of an n-row
    enumeration."""
    # bound p and n before the rows are enumerated, p deep, and before forming the powers
    k, limit = max(p, n), arith_limit()
    if k > limit.bit_length() or ring.order ** k > limit:
        raise SizeLimitError(f"order {ring.order}^{k} exceeds the arithmetic bound")
    if p < 1 or n < 1:
        raise PreconditionError("need p, n >= 1")
    rows = _orthogonal_rows(ring, p)
    if len(rows) ** n > MATRIX_BOUND:
        raise SizeLimitError(f"{len(rows)}^{n} matrices exceed the enumeration bound")
    return rows


def enumerate_homal(ring: FiniteRing, p: int, n: int) -> list[LambdaMatrix]:
    """All algebra morphisms R^p -> R^n, as their lambda-matrices.  The three
    row conditions are independent across rows, so matrices are cartesian
    products of row choices."""
    return [LambdaMatrix(ring, combo) for combo in iproduct(_homal_rows(ring, p, n), repeat=n)]


def _row_map(ring: FiniteRing, row: Sequence[int], digits: Sequence[np.ndarray]) -> np.ndarray:
    """The map R^p -> R, x -> sum_j row[j] x_j, on the elements of R^p with
    the given components."""
    acc = np.full(len(digits[0]), ring.zero, dtype=np.intp)
    for a, d in zip(row, digits):
        acc = ring.add[acc, ring.mul[a, d]]
    return acc


def homal_to_hom(mat: LambdaMatrix, source: FiniteRing, target: FiniteRing) -> RingHom:
    """The morphism with phi(f_j) = sum_i a_{i,j} e_i, as a map of the
    product rings R^p -> R^n built by rings.product."""
    r = mat.ring
    p, n = mat.p, mat.n
    if source.order != r.order ** p or target.order != r.order ** n:
        raise PreconditionError("product rings do not match the matrix shape")
    digits = product_components([r.order] * p, np.arange(source.order))
    comp = [_row_map(r, row, digits) for row in mat.entries]
    return RingHom(source, target, product_index([r.order] * n, comp))


class ExalClass(NamedTuple):
    """Injective morphisms sharing one image subalgebra of R^n."""

    representative: LambdaMatrix
    image: tuple[int, ...]
    size: int


class ExalReport(NamedTuple):
    ring: FiniteRing
    p: int
    n: int
    classes: tuple[ExalClass, ...]
    injective_matrices: int
    homal_size: int

    @property
    def count(self) -> int:
        return len(self.classes)


def _group_images(groups: dict[bytes, list[int]], images: np.ndarray, firsts: np.ndarray) -> None:
    """Merge the rows of images (C-contiguous) into groups, which maps the
    bytes of each distinct row to [its least first, its count]; firsts must
    be increasing, and above those of earlier merges.  The chunk is grouped
    alone, by one sort of its rows as byte strings, so no merge sorts again
    what earlier ones grouped."""
    keys, pick, counts = np.unique(images.view(f"V{images.shape[1] * images.itemsize}").ravel(),
                                   return_index=True, return_counts=True)
    for key, first, size in zip(keys.tolist(), firsts[pick].tolist(), counts.tolist()):
        groups.setdefault(key, [first, 0])[1] += size


def enumerate_exal(ring: FiniteRing, p: int, n: int) -> ExalReport:
    """Injective morphisms R^p -> R^n, grouped by image.

    Two injective morphisms have the same image exactly when they differ by
    an algebra automorphism of the source, so the class count is the count
    of embedded copies of R^p.

    A map into R^n is a morphism exactly when each of its n components is,
    so each lambda-row's map R^p -> R is validated once as a RingHom, and
    the maps of all matrices, in enumeration order, are laid out from them
    as rows of one array, EXAL_CHUNK entries at a time.  A map is injective
    when its sorted row has no repeat, and that sorted row is its image."""
    rows = _homal_rows(ring, p, n)
    source = product([ring] * p).ring
    digits = product_components([ring.order] * p, np.arange(source.order))
    comps = np.stack([RingHom(source, ring, _row_map(ring, row, digits)).map for row in rows])
    radix = [len(rows)] * n  # matrix k has rows product_components(radix, k)
    total = len(rows) ** n
    per = max(1, EXAL_CHUNK // source.order)
    groups: dict[bytes, list[int]] = {}
    injective = 0
    for lo in range(0, total, per):
        index = np.arange(lo, min(lo + per, total))
        parts = (comps[c] for c in product_components(radix, index))
        # indices of R^n, whose order is within the arithmetic bound
        maps = product_index([ring.order] * n, parts).astype(ELEMENT)
        maps.sort(axis=1)
        keep = (maps[:, 1:] != maps[:, :-1]).all(axis=1).nonzero()[0]
        injective += len(keep)
        _group_images(groups, maps[keep], index[keep])
    images = np.frombuffer(b"".join(groups), dtype=ELEMENT).reshape(len(groups), source.order)
    found = list(groups.values())
    # the classes in the order of their images, compared entry by entry
    classes = tuple(
        ExalClass(LambdaMatrix(ring, tuple(rows[int(c)] for c in product_components(radix, found[i][0]))),
                  tuple(images[i].tolist()), found[i][1])
        for i in np.lexsort(images.T[::-1]).tolist()
    )
    return ExalReport(ring, p, n, classes, injective, total)


class ExalBoundReport(NamedTuple):
    count: int
    stirling: int
    minimal_prime_count: int
    bound: int
    connected: bool


def exal_bound_check(rep: ExalReport) -> ExalBoundReport:
    """|Exal| against S(n,p)^(number of minimal primes); equality demanded
    for connected rings."""
    m = len(rep.ring.primitive_idempotents)
    s = stirling2(rep.n, rep.p)
    bound = s ** m
    if rep.count > bound:
        raise InternalCheckError(f"|Exal| = {rep.count} exceeds the bound {bound}")
    connected = m == 1
    if connected and rep.count != s:
        raise InternalCheckError(
            f"connected ring with |Exal| = {rep.count} != S({rep.n},{rep.p}) = {s}"
        )
    return ExalBoundReport(rep.count, s, m, bound, connected)
