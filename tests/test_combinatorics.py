from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import combinatorics as cb
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import PreconditionError, SizeLimitError


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
        by_blocks = Counter(q.block_count for q in parts)
        assert cb.bell_by_recurrence(n) == len(parts)
        for p in range(1, n + 1):
            assert cb.stirling2_by_recurrence(n, p) == by_blocks.get(p, 0)
    n = cb.PARTITION_BOUND
    assert sum(cb.stirling2_by_recurrence(n, p) for p in range(n + 1)) == cb.bell_by_recurrence(n)


def test_partition_bound():
    with pytest.raises(SizeLimitError):
        cb.partitions(cb.PARTITION_BOUND + 1)


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
    import numpy as np

    ext = lt.Extension(rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    with pytest.raises(PreconditionError):
        cb.partition_to_subalgebra(ext, cb.partitions(3)[0])  # 4 is not 2^3


def test_lambda_matrix_validation(z4):
    good = cb.LambdaMatrix(z4, ((1, 0), (0, 1), (0, 1)))
    good.validate()
    with pytest.raises(PreconditionError):
        cb.LambdaMatrix(z4, ((1, 1), (0, 1), (0, 1))).validate()  # row sum 2
    with pytest.raises(PreconditionError):
        cb.LambdaMatrix(z4, ((2, 0), (0, 1), (0, 1))).validate()  # 2 not idempotent


def test_homal_enumeration_size(z4):
    mats = cb.enumerate_homal(z4, 2, 3)
    assert len(mats) == 8  # rows (1,0) and (0,1), three free choices
    homs = [cb.homal_to_hom(m, rg.product([z4, z4]).ring,
                            rg.product([z4, z4, z4]).ring) for m in mats[:2]]
    for h in homs:
        assert h.map.shape == (16,)


def test_lambda_round_trip(z4):
    source = rg.product([z4, z4]).ring
    target = rg.product([z4, z4, z4]).ring
    for mat in cb.enumerate_homal(z4, 2, 3):
        hom = cb.homal_to_hom(mat, source, target)
        back = cb.lambda_of_hom(hom, z4, 2, 3)
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
    bound = cb.exal_bound_check(ff, 2, 3)
    assert not bound.connected
    assert bound.count == 9
    assert bound.bound == 9


def test_exal_equality_check_for_connected(z4):
    bound = cb.exal_bound_check(z4, 2, 4)
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
