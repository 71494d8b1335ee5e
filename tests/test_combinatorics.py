from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import combinatorics as cb
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import PreconditionError, SizeLimitError
from test_rings import _minus, _relabeled


def test_bell_values():
    assert [cb.bell(n) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_stirling_values():
    assert cb.stirling2(3, 2) == 3
    assert cb.stirling2(4, 2) == 7
    assert cb.stirling2(4, 3) == 6
    assert cb.stirling2(5, 5) == 1
    assert cb.stirling2(5, 6) == 0


def test_counting_oracles_agree_up_to_the_bound():
    # enumeration is exponential; one pass per n keeps the cross-check affordable
    for n in range(1, 10):
        parts = cb.partitions(n)
        by_blocks = Counter(len(q.blocks) for q in parts)
        assert cb.bell_by_recurrence(n) == len(parts)
        for p in range(1, n + 1):
            assert cb.stirling2_by_recurrence(n, p) == by_blocks.get(p, 0)
    n = cb.PARTITION_BOUND
    assert sum(cb.stirling2_by_recurrence(n, p) for p in range(n + 1)) == cb.bell_by_recurrence(n)


def test_partition_bound():
    with pytest.raises(SizeLimitError):
        cb.partitions(cb.PARTITION_BOUND + 1)


def test_partitions_past_the_matrix_bound_build_no_record(monkeypatch):
    # Bell(12) = 4,213,597 records would take about 2 GB; Bell(11) = 678,570
    # is inside MATRIX_BOUND and is still enumerated
    built = []
    monkeypatch.setattr(cb, "_rgs_to_partition", lambda n, s: built.append(n))
    with pytest.raises(SizeLimitError, match="4213597"):
        cb.partitions(12)
    assert built == []
    assert cb.bell(12) == 4213597 > cb.MATRIX_BOUND
    assert len(cb.partitions(11)) == 678570 == len(built)


def test_partitions_are_distinct_and_block_sorted():
    parts = cb.partitions(4)
    assert len({str(p) for p in parts}) == 15
    for p in parts:
        firsts = [b[0] for b in p.blocks]
        assert firsts == sorted(firsts)
    assert str(cb.partitions(3)[0]) in {"1,2,3"}


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=7, deadline=None)
def test_partition_blocks_cover_exactly(n):
    for p in cb.partitions(n):
        seen = sorted(x for b in p.blocks for x in b)
        assert seen == list(range(1, n + 1))


def test_partition_to_subalgebra(f2):
    ext = lt.power_extension(f2, 3)
    part = next(p for p in cb.partitions(3) if str(p) == "1,3/2")
    sub = cb.partition_to_subalgebra(ext, part)
    assert sub.elements == (0, 2, 5, 7)  # (a,b,a) under strides 4,2,1


def test_partition_to_subalgebra_needs_power(f2, f4):
    ext = lt.Extension(rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    with pytest.raises(PreconditionError):
        cb.partition_to_subalgebra(ext, cb.partitions(3)[0])  # 4 is not 2^3


def _validate(mat):
    """Raise PreconditionError unless every entry of the LambdaMatrix is
    idempotent, the entries of each row are pairwise orthogonal, and each
    row sums to one."""
    r = mat.ring
    for row in mat.entries:
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


def test_lambda_matrix_validation(z4):
    _validate(cb.LambdaMatrix(z4, ((1, 0), (0, 1), (0, 1))))
    with pytest.raises(PreconditionError):
        _validate(cb.LambdaMatrix(z4, ((1, 1), (0, 1), (0, 1))))  # row sum 2
    with pytest.raises(PreconditionError):
        _validate(cb.LambdaMatrix(z4, ((2, 0), (0, 1), (0, 1))))  # 2 not idempotent


def test_homal_enumeration_size(z4):
    mats = cb.enumerate_homal(z4, 2, 3)
    assert len(mats) == 8  # rows (1,0) and (0,1), three free choices
    homs = [cb.homal_to_hom(m, rg.product([z4, z4]).ring,
                            rg.product([z4, z4, z4]).ring) for m in mats[:2]]
    for h in homs:
        assert h.map.shape == (16,)


def _lambda_of_hom(hom, ring, p, n):
    """Read the matrix back off a morphism R^p -> R^n: a_{i,j} = component i
    of phi(f_j)."""
    cols = []
    for j in range(p):
        f_j = rg.product_index([ring.order] * p, [ring.one if k == j else ring.zero for k in range(p)])
        cols.append([int(c) for c in rg.product_components([ring.order] * n, int(hom.map[f_j]))])
    return cb.LambdaMatrix(ring, tuple(tuple(cols[j][i] for j in range(p)) for i in range(n)))


def test_lambda_round_trip(z4):
    source = rg.product([z4, z4]).ring
    target = rg.product([z4, z4, z4]).ring
    for mat in cb.enumerate_homal(z4, 2, 3):
        hom = cb.homal_to_hom(mat, source, target)
        back = _lambda_of_hom(hom, z4, 2, 3)
        assert back.entries == mat.entries


def test_exal_connected_counts(z4, f3):
    assert cb.enumerate_exal(z4, 2, 3).count == 3
    assert cb.enumerate_exal(f3, 3, 4).count == 6
    rep = cb.enumerate_exal(z4, 2, 3)
    assert rep.injective_matrices == 6  # 2 column orders per unordered split
    assert all(c.size >= 1 for c in rep.classes)


def test_exal_disconnected_sandwich(f2):
    ff = rg.product([f2, f2]).ring
    rep = cb.enumerate_exal(ff, 2, 3)
    assert rep.count == 9
    bound = cb.exal_bound_check(rep)
    assert not bound.connected
    assert bound.count == 9
    assert bound.bound == 9


def test_exal_equality_check_for_connected(z4):
    bound = cb.exal_bound_check(cb.enumerate_exal(z4, 2, 4))
    assert bound.connected
    assert bound.count == bound.stirling == 7


def test_dimension_bound():
    with pytest.raises(SizeLimitError):
        cb.enumerate_exal(rg.make_gf(2), 2, cb.PARTITION_BOUND + 1)


def test_homal_is_bounded_before_its_rows(z4):
    # the rows recurse once per source factor; a huge p is refused first
    with pytest.raises(SizeLimitError):
        cb.enumerate_homal(z4, 99999999, 2)
    with pytest.raises(SizeLimitError):
        cb.enumerate_homal(z4, 2, 99999999)


_EXAL_RINGS = {
    "Z/4": lambda: rg.make_zmod(4),
    "F3": lambda: rg.make_gf(3),
    "F2[t]/(t^2)": lambda: rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring,
    "F2xF2": lambda: rg.product([rg.make_gf(2)] * 2).ring,
    "Z/6": lambda: rg.make_zmod(6),
}
# the cases of verify's exal check, then Z/6 = F2 x F3 with p = 1 and p = 2
_EXAL_CASES = [(label, p, n) for label in ("Z/4", "F3", "F2[t]/(t^2)", "F2xF2")
               for p, n in ((2, 3), (2, 4), (3, 4))] + [("Z/6", 1, 3), ("Z/6", 2, 3), ("Z/6", 2, 4)]


@lru_cache(maxsize=None)
def _exal_ring(label):
    return _EXAL_RINGS[label]()


@lru_cache(maxsize=None)
def _exal_oracle(label, p, n):
    """Oracle for enumerate_exal: one RingHom R^p -> R^n per lambda-matrix,
    validated as every RingHom is, then is_injective, then its
    image by distinct; classes sorted by image, each represented by its
    first matrix.  Also gives the matrices and whether each is injective."""
    ring = _exal_ring(label)
    mats = cb.enumerate_homal(ring, p, n)
    source, target = rg.product([ring] * p).ring, rg.product([ring] * n).ring
    by_image, injective = {}, []
    for mat in mats:
        hom = cb.homal_to_hom(mat, source, target)
        injective.append(hom.is_injective)
        if hom.is_injective:
            image = tuple(int(v) for v in rg.distinct(hom.map, target.order))
            by_image.setdefault(image, []).append(mat)
    classes = tuple(cb.ExalClass(members[0], image, len(members))
                    for image, members in sorted(by_image.items()))
    return cb.ExalReport(ring, p, n, classes, sum(injective), len(mats)), mats, injective


@pytest.mark.parametrize("label,p,n", _EXAL_CASES)
def test_exal_matches_the_hom_oracle(label, p, n):
    assert cb.enumerate_exal(_exal_ring(label), p, n) == _exal_oracle(label, p, n)[0]


def _columns_join_to_one(mat):
    """Each column's idempotents a_1j ... a_nj join to 1: the product of
    the 1 - a_ij is 0."""
    r = mat.ring
    for j in range(mat.p):
        outside = r.one
        for row in mat.entries:
            outside = int(r.mul[outside, _minus(r, r.one, row[j])])
        if outside != r.zero:
            return False
    return True


@pytest.mark.parametrize("label,p,n", _EXAL_CASES)
def test_injective_exactly_when_every_column_joins_to_one(label, p, n):
    _, mats, injective = _exal_oracle(label, p, n)
    assert [_columns_join_to_one(m) for m in mats] == injective
    # with p = 1 the one row is (1) and every map is injective
    assert any(injective) and (p == 1 or not all(injective))


@pytest.mark.parametrize("label,p,n", [("F2xF2", 2, 4), ("Z/6", 2, 4), ("Z/4", 3, 4)])
@pytest.mark.parametrize("matrices_per_chunk", [1, 7])
def test_exal_chunks_merge_to_one_pass(monkeypatch, label, p, n, matrices_per_chunk):
    ring = _exal_ring(label)
    whole = cb.enumerate_exal(ring, p, n)
    monkeypatch.setattr(cb, "EXAL_CHUNK", matrices_per_chunk * ring.order ** p)
    assert cb.enumerate_exal(ring, p, n) == whole


def test_exal_validates_each_row_once_and_builds_no_target(monkeypatch):
    ring = _exal_ring("Z/6")
    homs, powers = [], []

    def counting_hom(source, target, table):
        homs.append(target)
        return rg.RingHom(source, target, table)

    def recording_product(factors):
        powers.append(len(factors))
        return rg.product(factors)

    monkeypatch.setattr(cb, "RingHom", counting_hom)
    monkeypatch.setattr(cb, "product", recording_product)
    rep = cb.enumerate_exal(ring, 2, 4)
    assert rep.homal_size == len(homs) ** 4 == 4 ** 4  # rows (1,0), (0,1), (3,4), (4,3)
    assert all(t is ring for t in homs)
    assert powers == [2]


@pytest.mark.parametrize("bad_row", [(1, 1), (2, 3)])  # sums to 2; entries not idempotent
def test_exal_refuses_a_row_that_is_not_a_lambda_row(monkeypatch, z4, bad_row):
    rows = cb._orthogonal_rows
    monkeypatch.setattr(cb, "_orthogonal_rows", lambda ring, p: rows(ring, p) + [bad_row])
    with pytest.raises(PreconditionError):
        cb.enumerate_exal(z4, 2, 3)


@pytest.mark.parametrize("label,perm", [("Z/4", [2, 0, 3, 1]), ("F2xF2", [3, 1, 0, 2])])
@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 4)])
def test_exal_is_invariant_under_relabeling(label, perm, p, n):
    ring = _exal_ring(label)
    rep, moved = cb.enumerate_exal(ring, p, n), cb.enumerate_exal(_relabeled(ring, perm), p, n)
    assert (moved.count, moved.injective_matrices, moved.homal_size) == (
        rep.count, rep.injective_matrices, rep.homal_size)
    assert Counter(c.size for c in moved.classes) == Counter(c.size for c in rep.classes)
