import pytest

from ringlat import crt as cr
from ringlat import ideals as il
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import PreconditionError


def test_family_validation(z12):
    with pytest.raises(PreconditionError):
        cr.make_family(z12, [[4]])  # a single ideal never separates
    with pytest.raises(PreconditionError):
        cr.make_family(z12, [[4], [1]])  # the whole ring is not allowed


def test_comaximal_pair_is_isomorphism():
    z6 = rg.make_zmod(6)
    crt = cr.make_crt(z6, [[2], [3]])
    assert crt.is_isomorphism
    assert cr.conductor_by_formula(crt).is_whole
    red = cr.reduce_to_zero_conductor(crt)
    assert red.crt_isomorphism
    assert red.crt is None
    assert red.dropped == (0, 1)


def test_z12_three_ideal_family(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    fam = crt.family
    assert fam.n == 3
    assert not fam.normalized  # the intersection is already zero
    assert sorted(cr.conductor_by_formula(crt).elements) == [0, 3, 6, 9]
    assert cr.weak_crt_check(crt) == (True, True, True)
    assert cr.is_minimal_crt(crt) == (1, 2)
    assert lt.intermediate_algebras(crt.extension).count == 2


def test_z12_non_minimal_family(z12):
    crt = cr.make_crt(z12, [[4], [3], [6]])
    assert cr.is_minimal_crt(crt) is None
    assert lt.intermediate_algebras(crt.extension).count != 2


def test_minimality_criterion_needs_three(z12):
    crt = cr.make_crt(z12, [[4], [3]])
    with pytest.raises(PreconditionError):
        cr.is_minimal_crt(crt)


def test_two_ideal_field_case():
    z9 = rg.make_zmod(9)
    crt = cr.make_crt(z9, [[3], [0]])
    res = cr.is_minimal_crt2(crt)
    assert res.minimal  # Z/9 over (3) is a field
    assert res.predicted_count == 2
    assert lt.intermediate_algebras(crt.extension).count == 2


def test_two_ideal_count_prediction(z8):
    crt = cr.make_crt(z8, [[4], [0]])
    res = cr.is_minimal_crt2(crt)
    assert not res.minimal  # (4) + 0 = (4), and Z/8 over (4) is Z/4
    assert res.predicted_count == 3  # ideal count of Z/4
    assert res.predicted_count == lt.intermediate_algebras(crt.extension).count


def test_normalization_quotients_the_intersection(z12):
    crt = cr.make_crt(z12, [[4], [2]])
    fam = crt.family
    assert fam.normalized
    assert fam.ring.order == 4  # Z/12 modulo (4) meet (2) = (4)
    assert crt.extension.base.order == 4
    zero = il.zero_ideal(fam.ring)
    inter = fam.ideals[0]
    for ideal in fam.ideals[1:]:
        inter = il.ideal_intersection(inter, ideal)
    assert inter == zero


def test_reduction_keeps_surviving_factors(z12):
    crt = cr.make_crt(z12, [[4], [3], [6]])
    red = cr.reduce_to_zero_conductor(crt)
    assert not red.crt_isomorphism
    assert red.dropped == ()
    assert red.crt.family.ring.order == 6  # base becomes Z/12 over (6)
    assert cr.conductor_by_formula(red.crt).is_zero


def test_reduction_drops_comaximal_factor(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    red = cr.reduce_to_zero_conductor(crt)
    assert red.dropped == (0,)
    assert red.crt.family.ring.order == 3
    assert red.projection is not None


@pytest.mark.parametrize("n, gens", [(10, [[2], [2]]), (8, [[0], [0]]), (12, [[0], [0], [0]])])
def test_a_zero_conductor_family_is_its_own_reduction(n, gens):
    crt = cr.make_crt(rg.make_zmod(n), gens)
    assert crt.conductor.is_zero
    red = cr.reduce_to_zero_conductor(crt)
    assert red.crt is crt
    assert red.dropped == ()
    assert not red.crt_isomorphism
    base = crt.family.ring
    assert red.projection.source is red.projection.target is base
    assert red.projection.map.tolist() == list(range(base.order))


def test_minimality_and_reduction_read_each_sum_table_once(z12, monkeypatch):
    crt = cr.make_crt(z12, [[2], [4], [6]])
    calls = []
    orig = cr.SeparatingFamily._plus
    monkeypatch.setattr(cr.SeparatingFamily, "_plus", lambda fam, a, b: calls.append(1) or orig(fam, a, b))
    cr.is_minimal_crt(crt)
    assert len(calls) == 6  # the pair sums off the diagonal, read once
    calls.clear()
    cr.reduce_to_zero_conductor(crt)
    assert len(calls) == 2 + 3  # the complement sum, then widened read once


def test_seminormalization_of_crt(z8):
    crt = cr.make_crt(z8, [[0], [0]])
    res = cr.seminormalization_of_crt(crt)
    assert sorted(res.annihilator_of_maximal.elements) == [0, 4]
    assert res.node.order == 32  # R + M(R x R) inside the 64-element product


def test_seminormalization_needs_local_base(z12):
    crt = cr.make_crt(z12, [[0], [0]])
    with pytest.raises(PreconditionError):
        cr.seminormalization_of_crt(crt)


def test_crt_extension_is_infra_integral(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    assert lt.is_infra_integral(crt.extension)
    assert lt.is_delta0(crt.extension)
