import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import InternalCheckError, PreconditionError, SizeLimitError


def test_zmod_basics(z12):
    assert z12.order == 12
    assert z12.zero == 0 and z12.one == 1
    assert z12.plus(7, 8) == 3
    assert z12.times(7, 8) == 8
    assert z12.minus(3, 7) == 8
    assert z12.power(5, 3) == 5
    assert sorted(np.flatnonzero(z12.units)) == [1, 5, 7, 11]
    assert sorted(np.flatnonzero(z12.nilpotents)) == [0, 6]


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_zmod_axioms(n):
    rg.check_ring_axioms(rg.make_zmod(n))


def test_zmod_rejects_trivial_orders():
    with pytest.raises(PreconditionError):
        rg.make_zmod(1)
    with pytest.raises(PreconditionError):
        rg.make_zmod(0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_gf_is_a_field(p, k):
    ring = rg.make_gf(p, k)
    assert ring.order == p ** k
    rg.check_ring_axioms(ring)
    assert rg.is_field(ring)


def test_gf_rejects_composite_characteristic():
    with pytest.raises(PreconditionError):
        rg.make_gf(6)


def test_corrupted_table_fails_axioms(z4):
    add = np.array(z4.add, copy=True)
    add[2, 3] = 0  # breaks commutativity against add[3, 2]
    broken = rg.FiniteRing(4, add, np.array(z4.mul, copy=True), 0, 1, "broken")
    with pytest.raises(InternalCheckError):
        rg.check_ring_axioms(broken)


def test_product_projections_and_diagonal(z4, f3):
    pr = rg.product([z4, f3])
    assert pr.ring.order == 12
    rg.check_ring_axioms(pr.ring)
    for i in range(pr.ring.order):
        a, b = int(pr.projections[0].map[i]), int(pr.projections[1].map[i])
        assert i == a * 3 + b
    assert pr.diagonal is None
    same = rg.product([z4, z4])
    assert same.diagonal is not None
    assert same.diagonal.is_injective


@pytest.mark.parametrize("source, factors", [
    ("Z/60", ["Z/4", "Z/3", "Z/5"]),
    ("Z/6", ["Z/3", "Z/2"]),
    ("Z/12", ["Z/4", "Z/3", "Z/3"]),
    ("Z/2", ["GF(2^2)", "Z/2", "Z/2[t]/(t^2)"]),
])
def test_product_layout_matches_oracle(source, factors):
    from itertools import product as tuples

    from ringlat.dsl import build_text

    src = build_text(source).ring
    rings = [build_text(f).ring for f in factors]
    pr = rg.product(rings)
    # the first factor is the most significant digit of the element index
    want = list(tuples(*(range(r.order) for r in rings)))
    assert [tuple(int(c[x]) for c in pr.components) for x in range(pr.ring.order)] == want
    assert rg.product_components(pr.orders, 7 % pr.ring.order) == list(want[7 % pr.ring.order])
    for x, y in [(1, 2), (pr.ring.order - 1, 3 % pr.ring.order)]:
        for table, name in ((pr.ring.add, "add"), (pr.ring.mul, "mul")):
            assert want[table[x, y]] == tuple(int(getattr(r, name)[a, b])
                                              for r, a, b in zip(rings, want[x], want[y]))
    maps = [rg.prime_hom(src, r).map for r in rings]
    paired = rg.pair_homs(src, pr, maps)
    for c, m in zip(pr.components, maps):
        assert np.array_equal(c[paired.map], m)
    ident = rg.pair_homs(pr.ring, pr, pr.components)
    assert np.array_equal(ident.map, np.arange(pr.ring.order))
    with pytest.raises(PreconditionError):
        rg.pair_homs(src, pr, maps[:-1])
    # a component outside its factor would alias: these pack to the identity
    c = pr.components
    with pytest.raises(PreconditionError):
        rg.pair_homs(pr.ring, pr, [0 * c[0], c[1] + c[0] * rings[1].order, *c[2:]])


def test_prime_hom_needs_a_base_generated_by_one(f2, f4):
    assert list(rg.prime_hom(rg.make_zmod(6), f2).map) == [0, 1, 0, 1, 0, 1]
    square = rg.product([f2, f2]).ring
    with pytest.raises(PreconditionError, match="not generated by 1"):
        rg.prime_hom(square, square)
    with pytest.raises(PreconditionError):
        rg.prime_hom(rg.make_zmod(3), f4)  # 3*1 = 1 in GF(4)


@pytest.mark.parametrize("ring, gens", [
    ("Z/12", [4]),
    ("Z/12", [6]),
    ("Z/4 x Z/3 x Z/5", [30]),  # (2, 0, 0)
    ("Z/2[t]/(t^3)", [4]),  # t^2
    ("GF(2^2) x Z/4", [2]),  # (0, 2)
])
def test_quotient_matches_brute_force_cosets(ring, gens, brute_force_cosets):
    from ringlat.dsl import build_text
    from ringlat.ideals import ideal_generated

    r = build_text(ring).ring
    ideal = ideal_generated(r, gens)
    classes = brute_force_cosets(r.add, ideal.elements)
    qr = rg.quotient(r, ideal)
    assert qr.ring.order == len(classes)
    assert [set(np.flatnonzero(qr.projection.map == k).tolist()) for k in range(len(classes))] \
        == [set(c) for c in classes]
    coset_of, reps = rg.cosets(r.add, np.asarray(ideal.elements))
    assert list(reps) == [min(c) for c in classes]
    assert np.array_equal(coset_of, qr.projection.map)


def test_quotient_of_zmod(z12):
    from ringlat.ideals import ideal_generated

    qr = rg.quotient(z12, ideal_generated(z12, [4]))
    assert qr.ring.order == 4
    assert rg.is_isomorphic(qr.ring, rg.make_zmod(4)) is not None
    assert not qr.projection.is_injective


def test_poly_quotient_builds_gf4(f2):
    pq = rg.poly_quotient(f2, [1, 1, 1], var="x")  # x^2 + x + 1
    assert pq.ring.order == 4
    assert rg.is_field(pq.ring)
    assert rg.is_isomorphic(pq.ring, rg.make_gf(2, 2)) is not None
    assert pq.to_quotient.is_injective


def test_poly_quotient_with_relations(f2):
    base = rg.poly_quotient(f2, [0, 0, 1], var="t").ring
    t = 2 if base.mul[2, 2] == base.zero and 2 != base.zero else 3
    pq = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], relations=[[0, t]], var="x")
    assert pq.ring.order == 8
    rg.check_ring_axioms(pq.ring)


def test_poly_quotient_requires_monic(f2):
    with pytest.raises(PreconditionError):
        rg.poly_quotient(f2, [1])  # constant
    with pytest.raises(PreconditionError):
        rg.poly_quotient(f2, [1, 0, 0])  # leading zero


def test_idempotents_and_connectivity(z4, f4):
    z6 = rg.make_zmod(6)
    assert sorted(e.index for e in rg.idempotents(z6)) == [0, 1, 3, 4]
    assert not rg.is_connected(z6)
    assert rg.is_connected(z4)
    assert rg.is_connected(f4)


def test_local_and_spir(z8, z12):
    m = rg.is_local(z8)
    assert m is not None and sorted(m.elements) == [0, 2, 4, 6]
    assert rg.is_local(z12) is None
    wit = rg.is_spir(z8)
    assert wit is not None and wit.index == 3 and wit.generator.index == 2
    assert rg.is_spir(z12) is None
    assert rg.is_spir(rg.make_gf(5)) is None  # fields excluded
    assert rg.nilpotency_index(z8) == 3


def test_local_decomposition(z12):
    dec = rg.local_decomposition(z12)
    orders = sorted(f.order for f, _ in dec.factors)
    assert orders == [3, 4]
    assert dec.iso.is_injective


def test_is_isomorphic_distinguishes(z4, f4):
    assert rg.is_isomorphic(z4, f4) is None
    perm = rg.is_isomorphic(z4, rg.make_zmod(4))
    assert perm is not None


def test_size_limits():
    with pytest.raises(SizeLimitError):
        rg.make_zmod(5000)
    assert rg.make_zmod(5000, max_order=5000).order == 5000


def test_env_override(monkeypatch):
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "6000")
    assert rg.make_zmod(5000).order == 5000
    monkeypatch.delenv("RINGLAT_MAX_ORDER")
    with pytest.raises(SizeLimitError):
        rg.make_zmod(5000)


def test_closed_subset_enumeration_is_order_independent(z8):
    # additive subgroups of Z/8: one per divisor
    base = rg.enumerate_closed_subsets(z8.order, [z8.zero], internal=(z8.add,))
    assert len(base) == 4

    @given(st.permutations(list(range(8))))
    @settings(max_examples=20, deadline=None)
    def check(perm):
        again = rg.enumerate_closed_subsets(z8.order, [z8.zero], internal=(z8.add,),
                                            element_order=perm)
        assert {rg.mask_elements(m) for m in again} == {rg.mask_elements(m) for m in base}

    check()


def _brute_force_closed_subsets(order, seed, internal=(), absorbing=()):
    """Every subset containing seed that the tables map into itself, sorted
    by (size, elements): an oracle independent of the closure engine."""
    rest = [x for x in range(order) if x not in set(seed)]
    found = []
    for bits in range(1 << len(rest)):
        mask = np.zeros(order, dtype=bool)
        mask[list(seed)] = True
        mask[[x for i, x in enumerate(rest) if bits >> i & 1]] = True
        idx = np.flatnonzero(mask)
        if all(mask[t[np.ix_(idx, idx)]].all() for t in internal) and \
                all(mask[t[:, idx]].all() for t in absorbing):
            found.append(mask)
    return sorted(found, key=lambda m: (int(m.sum()), rg.mask_elements(m)))


def _subalgebra_system(ring):
    return ring.order, [ring.zero, ring.one], (ring.add, ring.mul), ()


def _subgroup_system(ring):
    return ring.order, [ring.zero], (ring.add,), ()


def _submodule_system(mod):
    return mod.order, [mod.zero], (mod.add,), (mod.action,)


def _dual_numbers_plus_residue_field():
    # Z/2[t]/(t^2) (+) Z/2 over Z/2[t]/(t^2): t acts, so not every subgroup is a submodule
    ring = rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring
    t = next(x for x in range(ring.order) if ring.nilpotents[x] and x != ring.zero)
    return md.module_from_cyclics(ring, [[ring.zero], [t]])


@pytest.mark.parametrize("system", [
    lambda: _subalgebra_system(rg.product([rg.make_gf(2)] * 3).ring),  # Z/2 in (Z/2)^3
    lambda: _subalgebra_system(rg.poly_quotient(rg.make_gf(2), [0, 0, 0, 1], var="t").ring),
    lambda: _subalgebra_system(rg.make_zmod(9)),
    lambda: _subgroup_system(rg.product([rg.make_zmod(3)] * 2).ring),
    lambda: _subgroup_system(rg.make_zmod(8)),
    lambda: _submodule_system(md.module_from_cyclics(rg.make_zmod(4), [[0], [2]])),  # Z/4 (+) Z/2
    lambda: _submodule_system(_dual_numbers_plus_residue_field()),
    lambda: _submodule_system(md.module_from_ring(rg.product([rg.make_gf(2)] * 3).ring)),
], ids=["Z2-in-Z2^3", "Z2[t]/(t^3)", "Z9", "add-Z3^2", "add-Z8", "Z4+Z2-module",
        "Z2[t]/(t^2)+Z2-module", "ideals-Z2^3"])
def test_closed_subset_enumeration_matches_brute_force(system):
    order, seed, internal, absorbing = system()
    got = rg.enumerate_closed_subsets(order, seed, internal=internal, absorbing=absorbing)
    want = _brute_force_closed_subsets(order, seed, internal, absorbing)
    assert [rg.mask_elements(m) for m in got] == [rg.mask_elements(m) for m in want]


def test_power_is_square_and_multiply(z12):
    assert [z12.power(2, k) for k in range(6)] == [1, 2, 4, 8, 4, 8]
    assert z12.power(2, 10**12) == 4  # 2^k = 4 in Z/12 for every even k >= 2


def test_hom_validation(z4, f2):
    assert rg.RingHom(z4, f2, np.array([0, 1, 0, 1])).map.shape == (4,)  # reduction mod 2
    with pytest.raises(PreconditionError):
        rg.RingHom(z4, f2, np.array([0, 1, 1, 0]))  # not additive at 1+1
    with pytest.raises(PreconditionError):
        rg.RingHom(z4, z4, np.array([0, 2, 0, 2]))  # does not preserve one


def test_compose_and_identity(z4):
    ident = rg.identity_hom(z4)
    sq = rg.product([z4, z4])
    comp = rg.compose(ident, sq.diagonal)
    assert np.array_equal(comp.map, sq.diagonal.map)
