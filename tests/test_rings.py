import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import ideals as il
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import InternalCheckError, PreconditionError, RinglatError, SizeLimitError


def _minus(ring, a, b):
    """a - b in ring: a plus the additive inverse of b."""
    return int(ring.add[a, ring.neg[b]])


def test_zmod_basics(z12):
    assert z12.order == 12
    assert z12.zero == 0 and z12.one == 1
    assert z12.add[7, 8] == 3
    assert z12.mul[7, 8] == 8
    assert _minus(z12, 3, 7) == 8
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


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 257) if rg._is_prime(p)
                                 for k in range(1, 9) if p ** k <= 256])
def test_gf_tables_match_the_polynomial_oracle(p, k, brute_force_gf_tables):
    ring = rg.make_gf(p, k)
    add, mul = brute_force_gf_tables(p, k)
    assert np.array_equal(ring.add, add)
    assert np.array_equal(ring.mul, mul)


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
        a, b = int(pr.components[0][i]), int(pr.components[1][i])
        assert i == a * 3 + b
    for f, c in zip(pr.factors, pr.components):
        rg.RingHom(pr.ring, f, c)  # each component table is a projection hom
    with pytest.raises(PreconditionError):  # Z/4 has no diagonal into Z/4 x F3
        rg.pair_homs(z4, pr, [np.arange(4)] * 2)
    same = rg.product([z4, z4])
    assert rg.pair_homs(z4, same, [np.arange(4)] * 2).is_injective


@pytest.mark.parametrize("source, factors", [
    ("Z/60", ["Z/4", "Z/3", "Z/5"]),
    ("Z/6", ["Z/3", "Z/2"]),
    ("Z/12", ["Z/4", "Z/3", "Z/3"]),
    ("Z/2", ["GF(2^2)", "Z/2", "Z/2[t]/(t^2)"]),
    ("Z/60", ["Z/12", "Z/10", "Z/15"]),
])
def test_product_layout_matches_oracle(source, factors, brute_force_product_tables):
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
    add, mul = brute_force_product_tables(rings)
    assert pr.ring.add.dtype == pr.ring.mul.dtype == rg.ELEMENT == np.int16
    assert np.array_equal(pr.ring.add, add) and np.array_equal(pr.ring.mul, mul)
    # grouping the first two factors into one ring keeps every element's index
    if len(rings) > 2:
        nested = rg.product([rg.product(rings[:2]).ring, *rings[2:]]).ring
        assert rg.same_tables(nested, pr.ring)
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


def test_quotient_of_zmod(z12, is_isomorphic):
    from ringlat.ideals import ideal_generated

    qr = rg.quotient(z12, ideal_generated(z12, [4]))
    assert qr.ring.order == 4
    assert is_isomorphic(qr.ring, rg.make_zmod(4)) is not None
    assert not qr.projection.is_injective


def test_poly_quotient_builds_gf4(f2, is_isomorphic):
    pq = rg.poly_quotient(f2, [1, 1, 1], var="x")  # x^2 + x + 1
    assert pq.ring.order == 4
    assert rg.is_field(pq.ring)
    assert is_isomorphic(pq.ring, rg.make_gf(2, 2)) is not None
    assert pq.to_quotient.is_injective


def test_poly_quotient_with_relations(f2):
    base = rg.poly_quotient(f2, [0, 0, 1], var="t").ring
    t = 2 if base.mul[2, 2] == base.zero and 2 != base.zero else 3
    pq = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], relations=[[0, t]], var="x")
    assert pq.ring.order == 8
    rg.check_ring_axioms(pq.ring)


def _relabeled(ring, perm):
    """The same ring with each element x renamed perm[x]."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return rg.FiniteRing(ring.order, perm[ring.add[np.ix_(inv, inv)]], perm[ring.mul[np.ix_(inv, inv)]],
                         int(perm[ring.zero]), int(perm[ring.one]), ring.label)


def _gf4_case():
    f4 = rg.make_gf(2, 2)
    return f4, [2, 1, 1], ()  # x^2 + x + w, w the class of x in GF(4)


def _z2_z3_case():
    ring = rg.product([rg.make_zmod(2), rg.make_zmod(3)]).ring
    return ring, [ring.one, ring.zero, ring.one], ()


def _relabeled_z4_case(relations=()):
    ring = _relabeled(rg.make_zmod(4), [2, 0, 3, 1])  # zero is index 2, one is index 0
    assert ring.zero != 0
    return ring, [ring.one, ring.one, ring.one], relations  # x^2 + x + 1


def _z2_z3_relation_case():
    ring = rg.product([rg.make_zmod(2), rg.make_zmod(3)]).ring
    return ring, [ring.zero, ring.zero, ring.one], [[ring.zero, 3]]  # x^2, (1, 0) x


_POLY_QUOTIENTS = {
    "Z/2[t]/(t^6)": lambda: (rg.make_zmod(2), [0] * 6 + [1], ()),
    "Z/2[t]/(t^8)": lambda: (rg.make_zmod(2), [0] * 8 + [1], ()),
    "Z/4[t]/(t^3)": lambda: (rg.make_zmod(4), [0, 0, 0, 1], ()),
    "Z/9[t]/(t^2)": lambda: (rg.make_zmod(9), [0, 0, 1], ()),
    "Z/6[x]/(x+5)": lambda: (rg.make_zmod(6), [5, 1], ()),
    "Z/3[t]/(t^2+1)": lambda: (rg.make_zmod(3), [1, 0, 1], ()),
    "GF(4)[x]/(x^2+x+w)": _gf4_case,
    "(Z/2 x Z/3)[x]/(x^2+1)": _z2_z3_case,
    "relabeled Z/4[x]/(x^2+x+1)": _relabeled_z4_case,
    "Z/4[x]/(x^2, 2x)": lambda: (rg.make_zmod(4), [0, 0, 1], [[0, 2]]),
    "Z/2[t]/(t^6, t^4+t^3, t^5)": lambda: (rg.make_zmod(2), [0] * 6 + [1], [[0, 0, 0, 1, 1], [0] * 5 + [1]]),
    # t^3 + t = t (t^2 + 1) is zero mod f, so the free ring comes back
    "Z/3[t]/(t^2+1, t^3+t)": lambda: (rg.make_zmod(3), [1, 0, 1], [[0, 1, 0, 1]]),
    "Z/8[x]/(x^2, 4x)": lambda: (rg.make_zmod(8), [0, 0, 1], [[0, 4]]),
    "Z/9[x]/(x^2-3, 3x)": lambda: (rg.make_zmod(9), [6, 0, 1], [[0, 3]]),
    "GF(4)[x]/(x^3, w*x^2)": lambda: (rg.make_gf(2, 2), [0, 0, 0, 1], [[0, 0, 2]]),
    "(Z/2 x Z/3)[x]/(x^2, (1,0)*x)": _z2_z3_relation_case,
    "relabeled Z/4[x]/(x^2+x+1, 2x)": lambda: _relabeled_z4_case([[2, 3]]),  # 2 is index 3
    "Z/2[t]/(t^8, t^5+t^2)": lambda: (rg.make_zmod(2), [0] * 8 + [1], [[0, 0, 1, 0, 0, 1]]),
}


@pytest.mark.parametrize("case", list(_POLY_QUOTIENTS))
def test_poly_quotient_matches_the_schoolbook_oracle(case, brute_force_poly_quotient_tables):
    ring, monic, relations = _POLY_QUOTIENTS[case]()
    add, mul, zero, one, embed, x = brute_force_poly_quotient_tables(ring, monic)
    free = rg.FiniteRing(len(add), add, mul, zero, one, "oracle")
    proj = rg.identity_hom(free)
    if relations:
        # the relations, evaluated in the oracle's tables, generate the ideal divided out
        gens = [zero]
        for rel in relations:
            acc, xp = zero, one
            for c in rel:
                acc, xp = free.add[acc, free.mul[embed[c], xp]], free.mul[xp, x]
            gens.append(int(acc))
        ideal = rg.closure_mask(free.order, gens, (free.add,), (free.mul,))
        proj = rg.quotient(free, np.flatnonzero(ideal)).projection
    pq = rg.poly_quotient(ring, monic, relations)
    assert np.array_equal(pq.ring.add, proj.target.add)
    assert np.array_equal(pq.ring.mul, proj.target.mul)
    assert (pq.ring.zero, pq.ring.one) == (proj.target.zero, proj.target.one)
    assert np.array_equal(pq.to_quotient.map, proj.map[embed])
    assert pq.var_index == proj.map[x]


def _whole_table_mul(layout):
    """The mul table of R[x]/(f), the digit expansion run on every row at
    once: the reference for _PolyLayout.mul(rows)."""
    q = len(layout.add)
    out = np.full((q, 1), layout.zero, dtype=rg.ELEMENT)
    xa = np.arange(q)
    for _ in range(layout.degree):
        # scale.T[xa][a, c] = c * (x^i a)
        out = layout.add[layout.scale.T[xa][:, :, None], out[:, None, :]].reshape(q, -1)
        xa = layout.times_x[xa]
    return out


def _poly_quotient_via_free_ring(ring, monic, relations=(), var="x"):
    """poly_quotient by way of the free ring: R[x]/(monic) with its whole
    mul table and the embedding of R, the ideal the relations generate in
    it, then quotient and compose.  The reference for dividing on the
    layout."""
    monic = [int(c) for c in monic]
    if len(monic) < 2:
        raise PreconditionError("monic polynomial must have degree >= 1")
    if any(c < 0 or c >= ring.order for c in monic):
        raise PreconditionError("polynomial coefficient out of range")
    if monic[-1] != ring.one:
        raise PreconditionError("not monic: leading coefficient is not one")
    q = ring.order**(len(monic) - 1)
    if q > rg.arith_limit():
        raise SizeLimitError(f"order {q} exceeds the arithmetic bound")
    layout = rg._poly_layout(ring, monic)
    label = f"{ring.label}[{var}]/({rg._poly_label(ring, monic, var)}" + ("" if not relations else ",...") + ")"
    free = rg.FiniteRing(q, layout.add, _whole_table_mul(layout), layout.zero, layout.one, label)
    embed = rg.RingHom(ring, free, layout.scale[:, layout.one])
    x_index = int(layout.times_x[layout.one])
    rel_elems = []
    for rel in relations:
        rel = [int(c) for c in rel]
        if any(c < 0 or c >= ring.order for c in rel):
            raise PreconditionError("polynomial coefficient out of range")
        rel_elems.append(int(layout.horner(embed.map[rel])))
    if not rel_elems or all(e == free.zero for e in rel_elems):
        return rg.PolyQuotientResult(free, embed, x_index)
    imask = rg.sum_of_orbits(free.add, free.mul, free.zero, rel_elems)
    if imask.all():
        raise PreconditionError("trivial quotient: relations generate the unit ideal")
    qr = rg.quotient(free, rg.mask_elements(imask))
    return rg.PolyQuotientResult(qr.ring, rg.compose(embed, qr.projection), int(qr.projection.map[x_index]))


_CORPUS_BASES = [
    lambda: rg.make_zmod(2), lambda: rg.make_zmod(3), lambda: rg.make_zmod(4), lambda: rg.make_zmod(6),
    lambda: rg.make_zmod(8), lambda: rg.make_zmod(9), lambda: rg.make_gf(2, 2),
    lambda: rg.product([rg.make_zmod(2), rg.make_zmod(3)]).ring,
    lambda: rg.product([rg.make_zmod(2), rg.make_zmod(2)]).ring,
    lambda: _relabeled(rg.make_zmod(4), [2, 0, 3, 1]),
    lambda: rg.poly_quotient(rg.make_zmod(2), [0, 0, 1], var="t").ring,
]


def _random_poly_quotient_case(rng, bases):
    """A base, a monic of degree 1 to 8 with order at most 256, relations
    (one to three, each of length 1 to deg + 2, about half their
    coefficients zero) and a variable name; one coefficient in about fifty
    lies outside the base."""
    ring = bases[rng.integers(len(bases))]
    n = ring.order
    d = int(rng.integers(1, int(math.log(256, n) + 1e-9) + 1))

    def coeff(sparse=False):
        if sparse and rng.random() < 0.5:
            return ring.zero
        return n if rng.random() < 0.02 else int(rng.integers(n))

    monic = [coeff() for _ in range(d)] + [ring.one]
    relations = [[coeff(True) for _ in range(rng.integers(1, d + 3))] for _ in range(rng.integers(1, 4))]
    return ring, monic, relations, "xt"[rng.integers(2)]


def _poly_quotient_outcome(build, ring, monic, relations, var):
    try:
        pq = build(ring, monic, relations, var)
    except RinglatError as exc:  # the error is part of the outcome
        return type(exc), str(exc)
    r = pq.ring
    return (r.label, r.order, r.zero, r.one, r.add.tolist(), r.mul.tolist(),
            pq.to_quotient.map.tolist(), pq.var_index)


def test_dividing_on_the_layout_matches_the_free_ring_route():
    rng = np.random.default_rng(29)
    bases = [make() for make in _CORPUS_BASES]
    outcomes = []
    for _ in range(1200):
        case = _random_poly_quotient_case(rng, bases)
        got = _poly_quotient_outcome(rg.poly_quotient, *case)
        assert got == _poly_quotient_outcome(_poly_quotient_via_free_ring, *case), case
        outcomes.append(got)
    failures = [o for o in outcomes if isinstance(o[0], type)]
    quotients = [o for o in outcomes if not isinstance(o[0], type) and "/{" in o[0]]
    # 1,200 outcomes: 503 rings, 297 of them proper quotients, and 697 errors
    assert len(outcomes) - len(failures) >= 400 and len(quotients) >= 250 and len(failures) >= 500
    messages = {msg for _, msg in failures}
    assert "trivial quotient: relations generate the unit ideal" in messages
    assert "polynomial coefficient out of range" in messages


def _relabeled_z4_layout():
    ring = _relabeled_z4_case()[0]
    return ring, [ring.one, ring.one, ring.zero, ring.one]  # x^3 + x + 1


_LAYOUTS = {
    "Z/2[t]/(t^6)": lambda: (rg.make_zmod(2), [0] * 6 + [1]),
    "Z/9[t]/(t^2-3)": lambda: (rg.make_zmod(9), [6, 0, 1]),
    "GF(4)[x]/(x^3+x+w)": lambda: (rg.make_gf(2, 2), [2, 1, 0, 1]),
    "relabeled Z/4[x]/(x^3+x+1)": _relabeled_z4_layout,
}


@pytest.mark.parametrize("name", list(_LAYOUTS))
def test_layout_rows_match_the_whole_table_expansion(name):
    layout = rg._poly_layout(*_LAYOUTS[name]())
    whole = _whole_table_mul(layout)
    q = len(whole)
    subset = np.random.default_rng(q).choice(q, q // 3, replace=False)
    for rows in (np.arange(q), np.array([q - 1]), np.array([layout.one]), subset):
        got = layout.mul(rows)
        assert got.dtype == rg.ELEMENT and np.array_equal(got, whole[rows])


def test_a_relation_quotient_computes_only_its_leaders_rows(monkeypatch):
    want = rg.poly_quotient(rg.make_zmod(2), [0, 0, 0, 1], var="t").ring

    def refuse(*args):
        raise AssertionError("the free ring was built and divided")

    monkeypatch.setattr(rg, "quotient", refuse)
    monkeypatch.setattr(rg, "compose", refuse)
    rows, mul = [], rg._PolyLayout.mul

    def counted(layout, r):
        rows.extend(np.asarray(r).tolist())
        return mul(layout, r)

    monkeypatch.setattr(rg._PolyLayout, "mul", counted)
    # Z/2[t]/(t^10, t^3) = Z/2[t]/(t^3): the leaders are the 8 polynomials of degree < 3
    pq = rg.poly_quotient(rg.make_zmod(2), [0] * 10 + [1], [[0, 0, 0, 1]], var="t")
    assert sorted(rows) == list(range(8))
    assert pq.ring.label == "Z/2[t]/(t^10,...)/{0,8,16,24,...}"
    assert np.array_equal(pq.ring.add, want.add) and np.array_equal(pq.ring.mul, want.mul)
    assert pq.var_index == 2 and pq.to_quotient.map.tolist() == [0, 1]


def test_multiples_of_one(f4):
    assert rg.make_zmod(6).multiples_of_one.tolist() == [0, 1, 2, 3, 4, 5]
    assert f4.multiples_of_one.tolist() == [0, 1]
    assert _relabeled(rg.make_zmod(4), [2, 0, 3, 1]).multiples_of_one.tolist() == [2, 0, 3, 1]


def test_poly_quotient_requires_monic(f2):
    with pytest.raises(PreconditionError):
        rg.poly_quotient(f2, [1])  # constant
    with pytest.raises(PreconditionError):
        rg.poly_quotient(f2, [1, 0, 0])  # leading zero


def test_idempotents_and_connectivity(z4, f4, is_connected):
    z6 = rg.make_zmod(6)
    assert rg.idempotents(z6) == [0, 1, 3, 4]
    assert not is_connected(z6)
    assert is_connected(z4)
    assert is_connected(f4)


def test_local_and_spir(z8, z12):
    m = rg.is_local(z8)
    assert m is not None and sorted(m.elements) == [0, 2, 4, 6]
    assert rg.is_local(z12) is None
    wit = rg.is_spir(z8)
    assert wit is not None and wit.index == 3 and wit.generator == 2
    assert rg.is_spir(z12) is None
    assert rg.is_spir(rg.make_gf(5)) is None  # fields excluded
    assert rg.nilpotency_index(z8) == 3


def test_local_decomposition(z12, local_decomposition):
    dec = local_decomposition(z12)
    orders = sorted(f.order for f, _ in dec.factors)
    assert orders == [3, 4]
    assert dec.iso.is_injective


def test_is_isomorphic_distinguishes(z4, f4, is_isomorphic):
    assert is_isomorphic(z4, f4) is None
    perm = is_isomorphic(z4, rg.make_zmod(4))
    assert perm is not None


def test_size_limits():
    with pytest.raises(SizeLimitError):
        rg.make_zmod(5000)


def test_env_override(monkeypatch):
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "6000")
    assert rg.make_zmod(5000).order == 5000
    monkeypatch.delenv("RINGLAT_MAX_ORDER")
    with pytest.raises(SizeLimitError):
        rg.make_zmod(5000)


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


def _z4_plus_z2():
    return md.module_from_cyclics(rg.make_zmod(4), [[0], [2]])


def _ideals_of(ring):
    return md.module_from_ring(ring)


_SUBALGEBRA_RINGS = [
    lambda: rg.product([rg.make_gf(2)] * 3).ring,  # Z/2 in (Z/2)^3
    lambda: rg.poly_quotient(rg.make_gf(2), [0, 0, 0, 1], var="t").ring,
    lambda: rg.make_zmod(9),
]
_SUBALGEBRA_IDS = ["Z2-in-Z2^3", "Z2[t]/(t^3)", "Z9"]

_CLOSURE_SYSTEMS = pytest.mark.parametrize("system", [
    *(lambda make=make: _subalgebra_system(make()) for make in _SUBALGEBRA_RINGS),
    lambda: _subgroup_system(rg.product([rg.make_zmod(3)] * 2).ring),
    lambda: _subgroup_system(rg.make_zmod(8)),
    lambda: _submodule_system(_z4_plus_z2()),
    lambda: _submodule_system(_dual_numbers_plus_residue_field()),
    lambda: _submodule_system(_ideals_of(rg.product([rg.make_gf(2)] * 3).ring)),
], ids=[*_SUBALGEBRA_IDS, "add-Z3^2", "add-Z8", "Z4+Z2-module", "Z2[t]/(t^2)+Z2-module",
        "ideals-Z2^3"])


@_CLOSURE_SYSTEMS
def test_closed_subset_enumeration_matches_brute_force(system):
    order, seed, internal, absorbing = system()
    # every closed subset is its own closure, so the closures of seed plus
    # each subset of the elements are all of them
    closures = {rg.mask_elements(rg.closure_mask(
        order, [*seed, *(x for x in range(order) if bits >> x & 1)], internal, absorbing))
        for bits in range(1 << order)}
    want = _brute_force_closed_subsets(order, seed, internal, absorbing)
    assert sorted(closures, key=lambda e: (len(e), e)) == [rg.mask_elements(m) for m in want]


@pytest.mark.parametrize("make", _SUBALGEBRA_RINGS, ids=_SUBALGEBRA_IDS)
def test_subring_enumeration_matches_brute_force(make):
    ring = make()
    got = rg.enumerate_closed_subsets(ring, [ring.zero, ring.one])
    want = _brute_force_closed_subsets(*_subalgebra_system(ring))
    assert [rg.mask_elements(m) for m in got] == [rg.mask_elements(m) for m in want]


@_CLOSURE_SYSTEMS
def test_close_rows_closes_each_row_as_if_alone(system):
    # each row, a closed start with its new cells, goes through the one-row
    # pair closure on its own and must reach the brute-force closure
    order, seed, internal, absorbing = system()
    rng = np.random.default_rng(order)

    def closure(cells):
        # the least closed superset is the first closed superset in size order
        return _brute_force_closed_subsets(order, sorted(set(cells)), internal, absorbing)[0]

    # closed starts of every kind: empty, the system's own, one random generator
    starts = [[], seed] + [[int(rng.integers(order))] for _ in range(4)]
    news = [rng.choice(order, size=int(rng.integers(1, 4)), replace=False) for _ in starts]
    for start, cells in zip(starts, news):
        base = closure(start)
        kept = base.copy()
        got = rg.extend_closure_mask(order, base, cells, internal, absorbing)
        assert rg.mask_elements(got) == rg.mask_elements(closure(list(start) + cells.tolist()))
        assert np.array_equal(base, kept)


def _orbit_table(order, seed, internal, absorbing):
    """The table whose columns are the orbits of a closure system: a module's
    action, a ring's multiplication, or for a bare additive group the
    multiples k*x, k < order (the action of Z/order)."""
    if absorbing:
        return absorbing[0]
    if len(internal) > 1:
        return internal[1]
    multiples = np.zeros((order, order), dtype=np.int32)
    multiples[0] = seed[0]
    for k in range(1, order):
        multiples[k] = internal[0][multiples[k - 1], np.arange(order)]
    return multiples


def _generator_sets(order):
    return [[], *([x] for x in range(order)), *([x, y] for x in range(order) for y in range(x + 1, order))]


@_CLOSURE_SYSTEMS
def test_sums_of_orbits_and_spans_match_the_pair_closure(system):
    order, seed, internal, absorbing = system()
    add, zero = internal[0], seed[0]
    action = _orbit_table(order, seed, internal, absorbing)
    # the annihilator of x is an ideal of the acting ring, so an additive
    # subgroup that span_of_products accepts; that of zero is the whole ring
    annihilators = {tuple(np.flatnonzero(action[:, x] == zero)) for x in range(order)}
    for gens in _generator_sets(order):
        want = rg.closure_mask(order, [*gens, zero], (add,), (action,))
        assert rg.mask_elements(rg.sum_of_orbits(add, action, zero, gens)) == rg.mask_elements(want)
        for a in annihilators:
            prods = action[np.ix_(a, gens)].ravel()
            want = rg.closure_mask(order, [*prods, zero], (add,))
            assert rg.mask_elements(rg.span_of_products(add, action, zero, a, gens)) == rg.mask_elements(want)


_GATHER_SIZES = pytest.mark.parametrize("gather", [None, 1, 7], ids=["default", "gather1", "gather7"])


def _stack(masks):
    return np.array(masks, dtype=bool).reshape(len(masks), -1)


@_CLOSURE_SYSTEMS
@_GATHER_SIZES
def test_batched_submodule_join_matches_the_one_row_path(system, gather, monkeypatch):
    # one call joins every submodule A (of the orbit action) with every
    # orbit Rg: rows of different bases and sizes, blocks that split inside
    # a row (7 or 1 entries) and between rows
    order, seed, internal, absorbing = system()
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    add, zero = internal[0], seed[0]
    action = _orbit_table(order, seed, internal, absorbing)
    subs = _brute_force_closed_subsets(order, [zero], (add,), (action,))
    rows = [(a, g) for a in subs for g in range(order)]
    assert len({int(a.sum()) for a, _ in rows}) > 1
    orbits = _stack([np.isin(np.arange(order), action[:, g]) for _, g in rows])
    got = rg._add_cosets_rows(add, _stack([a for a, _ in rows]), orbits)
    for (a, g), row in zip(rows, got):
        elements = [*np.flatnonzero(a), g]
        assert rg.mask_elements(row) == rg.mask_elements(rg.sum_of_orbits(add, action, zero, elements))
        want = rg.closure_mask(order, elements, (add,), (action,))
        assert rg.mask_elements(row) == rg.mask_elements(want)


_ADJUNCTION_RINGS = [
    *_SUBALGEBRA_RINGS,
    lambda: rg.product([rg.make_zmod(3)] * 2).ring,
    lambda: rg.product([rg.make_gf(2, 2), rg.make_gf(2)]).ring,
    lambda: rg.product([rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring, rg.make_gf(2)]).ring,
]
_ADJUNCTION_IDS = [*_SUBALGEBRA_IDS, "Z3^2", "GF4xZ2", "Z2[t]/(t^2)xZ2"]


@pytest.mark.parametrize("make", _ADJUNCTION_RINGS, ids=_ADJUNCTION_IDS)
@_GATHER_SIZES
def test_batched_adjunction_matches_the_one_row_path(make, gather, monkeypatch):
    # one call adjoins every element to every subring: rows of different
    # bases and sizes, some s already inside their base
    ring = make()
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    order, seed, internal, _ = _subalgebra_system(ring)
    subrings = _brute_force_closed_subsets(order, seed, internal)
    bases = [b for b in subrings for _ in range(order)]
    s = np.tile(np.arange(order), len(subrings))
    assert len({int(b.sum()) for b in bases}) == len({int(b.sum()) for b in subrings})
    got = rg.adjoin_rows(ring, _stack(bases), s)
    for b, x, row in zip(bases, s, got):
        assert rg.mask_elements(row) == rg.mask_elements(rg.adjoin_rows(ring, b[None], np.array([x]))[0])
        want = rg.closure_mask(order, [*np.flatnonzero(b), x], internal)
        assert rg.mask_elements(row) == rg.mask_elements(want)


class _CountingTable(np.ndarray):
    """A table that counts the entries read from it by indexing."""

    reads = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        _CountingTable.reads += np.size(out)
        return out


def _add_cosets(add, a_mask, xs):
    """A one-row sumset loop, the reference for the kernel's table reads: the
    union of the additive subgroup A (its mask) and its cosets x + A for the
    elements x of xs, as a new mask.  One coset is one gathered row; the rows are taken in blocks,
    so that every gather stays within _GATHER_ENTRIES entries, and each block
    skips the x that earlier blocks already covered."""
    a_idx = a_mask.nonzero()[0]
    out = a_mask.copy()
    step = max(1, rg._GATHER_ENTRIES // len(a_idx))
    xs = xs[~out[xs]]
    while xs.size:
        out[add[xs[:step, None], a_idx]] = True
        xs = xs[step:]
        xs = xs[~out[xs]]
    return out


@_CLOSURE_SYSTEMS
@_GATHER_SIZES
def test_a_row_alone_does_the_work_of_add_cosets(system, gather, monkeypatch):
    # a one-row call reads exactly the table entries the one-row loop
    # _add_cosets reads for the same subgroup and the same elements in
    # increasing order: the same cosets per round, and the same skipping of
    # covered elements
    order, seed, internal, absorbing = system()
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    add, zero = internal[0], seed[0]
    table = add.view(_CountingTable)
    for a in _brute_force_closed_subsets(order, [zero], (add,)):
        for bits in range(1, 1 << order, 7):
            x = np.array([bits >> i & 1 for i in range(order)], dtype=bool)
            _CountingTable.reads = 0
            one = _add_cosets(table, a, np.flatnonzero(x))
            reads = _CountingTable.reads
            _CountingTable.reads = 0
            row = rg._add_cosets_rows(table, a[None], x[None])
            assert rg.mask_elements(row[0]) == rg.mask_elements(one)
            assert _CountingTable.reads == reads


def test_subalgebra_closure_batches_the_joins_of_each_level(monkeypatch, brute_force_hasse,
                                                            brute_force_chains):
    # (Z/2)^6: 203 subalgebras reached by several hundred joins (one per node
    # and coset outside it); every element is idempotent, so each adjunction
    # has one power step, and the kernel runs once for the atoms and once
    # per BFS level, never more often than the lattice is long plus one
    from ringlat.lattice import Poset, poset_structure

    ring = rg.product([rg.make_gf(2)] * 6).ring
    assert all(ring.mul[x, x] == x for x in range(ring.order))
    kernel, calls = rg._add_cosets_rows, []

    def counted(add, a, x, *members):
        calls.append(len(a))
        return kernel(add, a, x, *members)

    monkeypatch.setattr(rg, "_add_cosets_rows", counted)
    masks = rg.enumerate_closed_subsets(ring, [ring.zero, ring.one])
    lat = Poset(tuple(masks), masks.hasse_edges)
    assert lat.hasse_edges == poset_structure(masks)
    assert list(lat.hasse_edges) == brute_force_hasse(masks)
    # the partition lattice of 6 points: 6!5!/2^5 maximal chains (OEIS A006472)
    assert (lat.chain_lengths, lat.maximal_chain) == brute_force_chains(lat.hasse_edges, 0, 202)
    assert lat.chain_lengths == {5: 2700}
    assert lat.count == 203
    assert len(calls) <= lat.length + 1
    assert sum(calls) > 5 * len(calls)


_RELABELED_SUBALGEBRAS = {
    "(Z/2)^5": lambda: rg.product([rg.make_gf(2)] * 5).ring,
    "GF(2^6)": lambda: rg.make_gf(2, 6),
    "Z/4[t]/(t^3)": lambda: rg.poly_quotient(rg.make_zmod(4), [0, 0, 0, 1], var="t").ring,
    "Z/2[t]/(t^3) x Z/2[t]/(t^2)": lambda: rg.product([
        rg.poly_quotient(rg.make_gf(2), [0, 0, 0, 1], var="t").ring,
        rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring]).ring,
    "GF(2^2)^3": lambda: rg.product([rg.make_gf(2, 2)] * 3).ring,
    "Z/9[t]/(t^2)": lambda: rg.poly_quotient(rg.make_zmod(9), [0, 0, 1], var="t").ring,
    "Z/4 x Z/4 x Z/4": lambda: rg.product([rg.make_zmod(4)] * 3).ring,
}


@pytest.mark.parametrize("entries", [1, 50])
@pytest.mark.parametrize("name", ["(Z/2)^5", "Z/4[t]/(t^3)", "Z/2[t]/(t^3) x Z/2[t]/(t^2)"])
def test_level_chunks_do_not_change_the_closure(name, entries, monkeypatch):
    # a level split into chunks of one node or row, or of a few, joins the
    # same pairs: the same subrings and ideals in the same order
    ring = _RELABELED_SUBALGEBRAS[name]()
    subrings = rg.enumerate_closed_subsets(ring, [ring.zero, ring.one])
    ideals = rg.enumerate_submodules(ring.add, ring.mul, ring.zero)
    monkeypatch.setattr(rg, "_LEVEL_ENTRIES", entries)
    chunked_subrings = rg.enumerate_closed_subsets(ring, [ring.zero, ring.one])
    chunked_ideals = rg.enumerate_submodules(ring.add, ring.mul, ring.zero)
    assert [rg.mask_elements(m) for m in chunked_subrings] == [rg.mask_elements(m) for m in subrings]
    assert [rg.mask_elements(m) for m in chunked_ideals] == [rg.mask_elements(m) for m in ideals]
    # and the same covers, tested once all joins of a node exist
    assert chunked_subrings.hasse_edges == subrings.hasse_edges
    assert chunked_ideals.hasse_edges == ideals.hasse_edges


def _relabeling(order):
    return np.random.default_rng(order).permutation(order)


def _same_lattice_through(perm, masks, relabeled_masks, brute_force_hasse, brute_force_chains):
    from ringlat.lattice import Poset, poset_structure

    mapped = {frozenset(perm[np.flatnonzero(m)].tolist()) for m in masks}
    assert {frozenset(np.flatnonzero(m).tolist()) for m in relabeled_masks} == mapped
    before = Poset(tuple(masks), masks.hasse_edges)
    after = Poset(tuple(relabeled_masks), relabeled_masks.hasse_edges)
    for lat in (before, after):
        assert lat.hasse_edges == poset_structure(lat.nodes)
        assert list(lat.hasse_edges) == brute_force_hasse(lat.nodes)
        assert (lat.chain_lengths, lat.maximal_chain) == brute_force_chains(lat.hasse_edges, 0, lat.count - 1)
    assert (after.count, after.length, after.chain_lengths) == \
        (before.count, before.length, before.chain_lengths)
    # the covers read off each closure carry over node for node
    index = {frozenset(np.flatnonzero(m).tolist()): i for i, m in enumerate(relabeled_masks)}
    image = [index[frozenset(perm[np.flatnonzero(m)].tolist())] for m in masks]
    assert {(image[a], image[b]) for a, b in masks.hasse_edges} == set(relabeled_masks.hasse_edges)


@pytest.mark.parametrize("name", list(_RELABELED_SUBALGEBRAS))
def test_subalgebra_lattice_is_invariant_under_relabeling(name, brute_force_hasse, brute_force_chains):
    ring = _RELABELED_SUBALGEBRAS[name]()
    perm = _relabeling(ring.order)
    other = _relabeled(ring, perm)
    _same_lattice_through(perm, rg.enumerate_closed_subsets(ring, [ring.zero, ring.one]),
                          rg.enumerate_closed_subsets(other, [other.zero, other.one]),
                          brute_force_hasse, brute_force_chains)


def test_ideal_lattice_is_invariant_under_relabeling(brute_force_hasse, brute_force_chains):
    ring = rg.product([rg.make_zmod(8), rg.make_zmod(4)]).ring
    perm = _relabeling(ring.order)
    other = _relabeled(ring, perm)
    _same_lattice_through(perm, rg.enumerate_submodules(ring.add, ring.mul, ring.zero),
                          rg.enumerate_submodules(other.add, other.mul, other.zero),
                          brute_force_hasse, brute_force_chains)


def _subgroup_stack(ring):
    """The additive groups of every ideal and every subring of ring, as one
    mask stack of rows of many sizes."""
    return np.concatenate([rg.enumerate_submodules(ring.add, ring.mul, ring.zero)._masks,
                           rg.enumerate_closed_subsets(ring, [ring.zero, ring.one])._masks])


def _brute_force_labels(add, a, x):
    """Row by row, for each element y of X_r (row r of the mask stack x) the
    least element of its coset y + A_r (A_r row r of the mask stack a); -1
    at the other elements."""
    labels = np.full(a.shape, -1, dtype=np.int64)
    for r in range(len(a)):
        members = np.flatnonzero(a[r])
        for y in np.flatnonzero(x[r]):
            labels[r, y] = add[y, members].min()
    return labels


@_GATHER_SIZES
def test_cosets_match_the_full_gather_oracle(extension_zoo, gather, full_gather_cosets, monkeypatch):
    # every ideal and subring of each ring of the zoo and of a seeded
    # relabeling of it, whose least elements lie elsewhere; with one or seven
    # entries per round, cosets are labelled over many rounds
    cases = []
    for ring in _zoo_rings(extension_zoo):
        for r in (ring, _relabeled(ring, _relabeling(ring.order))):
            cases += [(r.add, np.flatnonzero(sub)) for sub in _subgroup_stack(r)]
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    for add, sub in cases:
        (coset_of, reps), (want_of, want_reps) = rg.cosets(add, sub), full_gather_cosets(add, sub)
        assert coset_of.dtype == rg.ELEMENT
        assert np.array_equal(coset_of, want_of) and np.array_equal(reps, want_reps)
    assert len(cases) > 400


@pytest.mark.parametrize("name", ["(Z/2)^5", "Z/4 x Z/4 x Z/4", "Z/9[t]/(t^2)", "GF(2^2)^3"])
@_GATHER_SIZES
def test_the_labeller_labels_each_coset_that_meets_x_by_its_least_element(name, gather, monkeypatch):
    # rows of every size, each with a random X: each element of X is
    # labelled by the least element of its coset, which need not lie in X,
    # and those least elements are the leaders
    ring = _RELABELED_SUBALGEBRAS[name]()
    a = _subgroup_stack(ring)
    rng = np.random.default_rng(len(a))
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    for density in (0.05, 0.5, 1.0):
        x = rng.random(a.shape) < density
        leaders, labels = rg._coset_labels(ring.add, a, x)
        want = _brute_force_labels(ring.add, a, x)
        assert np.array_equal(labels, want)
        want_leaders = np.zeros(a.shape, dtype=bool)
        want_leaders[np.nonzero(want >= 0)[0], want[want >= 0]] = True
        assert np.array_equal(leaders, want_leaders)


def _join_records(closed):
    return [tuple(part.tolist() for part in record) for record in closed._joins]


def _full_gather_labeller(full_gather_coset_leaders):
    """_coset_labels with its leaders from the full-gather oracle: the join
    closure passes as X_r the generators outside row r, so the generators
    are the union of the rows of X.  The labels, which cosets reads, come
    from _brute_force_labels."""
    def labels(add, a, x):
        leaders = np.zeros(a.shape, dtype=bool)
        leaders[full_gather_coset_leaders(add, a, np.flatnonzero(x.any(axis=0)))] = True
        return leaders, _brute_force_labels(add, a, x)
    return labels


@pytest.mark.parametrize("name", list(_RELABELED_SUBALGEBRAS))
def test_join_records_match_the_full_gather_leaders(name, full_gather_coset_leaders, monkeypatch):
    # the labeller finds the very leaders the full gather does, the least
    # element of each coset that holds a generator outside the node, and with
    # them the same (node, leader, join) records: on the ring and on a seeded
    # relabeling, whose least elements lie elsewhere, and over many rounds
    ring = _RELABELED_SUBALGEBRAS[name]()

    def closures():
        out = []
        for r in (ring, _relabeled(ring, _relabeling(ring.order))):
            out += [rg.enumerate_closed_subsets(r, [r.zero, r.one]), rg.enumerate_submodules(r.add, r.mul, r.zero)]
        return out

    got = closures()
    monkeypatch.setattr(rg, "_GATHER_ENTRIES", 7)
    many_rounds = closures()
    monkeypatch.undo()
    monkeypatch.setattr(rg, "_coset_labels", _full_gather_labeller(full_gather_coset_leaders))
    want = closures()
    for closed in (got, many_rounds):
        for a, b in zip(closed, want):
            assert _join_records(a) == _join_records(b)
            assert np.array_equal(a._masks, b._masks) and a.hasse_edges == b.hasse_edges


@pytest.mark.parametrize("gather", [None, 7])
def test_join_records_over_a_bottom_match_the_full_gather_leaders(gather, full_gather_coset_leaders,
                                                                   monkeypatch):
    # over a bottom the generators are the first element of each distinct
    # orbit, which need not be least in its coset; the leaders are still
    # each coset's least element, so the records, the nodes and the covers
    # match
    rings = [rg.product([rg.make_zmod(8), rg.make_zmod(4)]).ring, rg.product([rg.make_gf(2)] * 4).ring,
             rg.poly_quotient(rg.make_zmod(4), [0, 0, 0, 1], var="t").ring]
    cases = [(ring, bottom) for ring in rings
             for bottom in rg.enumerate_submodules(ring.add, ring.mul, ring.zero)]
    if gather is not None:
        monkeypatch.setattr(rg, "_GATHER_ENTRIES", gather)
    got = [rg.enumerate_submodules(ring.add, ring.mul, ring.zero, bottom) for ring, bottom in cases]
    monkeypatch.setattr(rg, "_coset_labels", _full_gather_labeller(full_gather_coset_leaders))
    want = [rg.enumerate_submodules(ring.add, ring.mul, ring.zero, bottom) for ring, bottom in cases]
    for a, b in zip(got, want):
        assert _join_records(a) == _join_records(b)
        assert np.array_equal(a._masks, b._masks) and a.hasse_edges == b.hasse_edges
    assert len(cases) > 40


def test_a_relation_quotient_reads_a_small_multiple_of_its_layout(monkeypatch):
    # Z/2[t]/(t^12, t): the ideal (t) holds 2,048 of the layout's 4,096
    # elements, and its two cosets are labelled from the cosets of the few
    # least elements, not from the whole block add[:, (t)] of 8.4 M entries
    layout_of = rg._poly_layout

    def counted(ring, monic):
        layout = layout_of(ring, monic)
        return layout._replace(add=layout.add.view(_CountingTable))

    monkeypatch.setattr(rg, "_poly_layout", counted)
    monkeypatch.setattr(_CountingTable, "reads", 0)
    quo = rg.poly_quotient(rg.make_zmod(2), [0] * 12 + [1], [[0, 1]])
    assert quo.ring.order == 2
    assert 0 < _CountingTable.reads <= 16 * 4096


@pytest.mark.parametrize("make", _SUBALGEBRA_RINGS, ids=_SUBALGEBRA_IDS)
def test_generated_ideals_match_the_pair_closure(make):
    ring = make()
    for gens in _generator_sets(ring.order):
        want = rg.closure_mask(ring.order, [*gens, ring.zero], (ring.add,), (ring.mul,))
        assert il.ideal_generated(ring, gens).elements == rg.mask_elements(want)


@pytest.mark.parametrize("module", [
    # the additive subgroups of Z/3 x Z/3 and of Z/8, as modules over Z/3 and Z/8
    lambda: md.module_from_cyclics(rg.make_zmod(3), [[0], [0]]),
    lambda: _ideals_of(rg.make_zmod(8)),
    _z4_plus_z2,
    _dual_numbers_plus_residue_field,
    lambda: _ideals_of(rg.product([rg.make_gf(2)] * 3).ring),
    lambda: _ideals_of(rg.make_zmod(12)),
    lambda: _ideals_of(rg.poly_quotient(rg.make_zmod(4), [0, 0, 1], var="u").ring),
], ids=["add-Z3^2", "add-Z8", "Z4+Z2-module", "Z2[t]/(t^2)+Z2-module", "ideals-Z2^3", "ideals-Z12",
        "ideals-Z4[u]/(u^2)"])
def test_submodule_enumeration_matches_brute_force(module):
    m = module()
    got = rg.enumerate_submodules(m.add, m.action, m.zero)
    want = _brute_force_closed_subsets(*_submodule_system(m))
    assert [rg.mask_elements(x) for x in got] == [rg.mask_elements(x) for x in want]


def test_whole_ring_subset_shares_the_tables(z4, f3):
    ring = rg.product([z4, f3]).ring  # one is index 4, not 1
    elems = np.arange(ring.order)
    sub, lookup = rg.subset_ring(ring, elems, ring.one, "whole")
    assert np.shares_memory(sub.add, ring.add) and np.shares_memory(sub.mul, ring.mul)
    # the tables the gather of a proper subset would give
    assert np.array_equal(lookup, elems)
    assert np.array_equal(sub.add, lookup[ring.add[np.ix_(elems, elems)]])
    assert np.array_equal(sub.mul, lookup[ring.mul[np.ix_(elems, elems)]])
    assert (sub.order, sub.zero, sub.one, sub.label) == (ring.order, ring.zero, ring.one, "whole")


def test_power_is_square_and_multiply(z12):
    assert [z12.power(2, k) for k in range(6)] == [1, 2, 4, 8, 4, 8]
    assert z12.power(2, 10**12) == 4  # 2^k = 4 in Z/12 for every even k >= 2


def test_hom_validation(z4, f2):
    assert rg.RingHom(z4, f2, np.array([0, 1, 0, 1])).map.shape == (4,)  # reduction mod 2
    with pytest.raises(PreconditionError):
        rg.RingHom(z4, f2, np.array([0, 1, 1, 0]))  # not additive at 1+1
    with pytest.raises(PreconditionError):
        rg.RingHom(z4, z4, np.array([0, 2, 0, 2]))  # does not preserve one


@pytest.mark.parametrize("dtype", [rg.ELEMENT, np.int64])
@pytest.mark.parametrize("table, message", [
    ([0, 1, 2, -1], "hom table maps outside the target"),
    ([0, 1, 2, -(1 << 15)], "hom table maps outside the target"),  # reads as 2^15 unsigned
    ([0, 1, 2, 4], "hom table maps outside the target"),  # the target's order
    ([1, 1, 2, 3], "hom does not preserve zero"),
    ([0, 3, 2, 1], "hom does not preserve one"),  # x -> -x is additive
    ([0, 1, 3, 3], "hom is not additive"),
])
def test_hom_validation_refuses_each_map_with_its_first_failing_check(dtype, table, message):
    # the range check of an ELEMENT map is one max over its unsigned view;
    # other dtypes are checked before they are narrowed
    z4 = rg.make_zmod(4)
    table = np.array(table, dtype=dtype)
    assert _all_pairs_verdict(z4, z4, table) == message
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        rg.RingHom(z4, z4, table)


def test_hom_validation_refuses_what_narrowing_would_wrap_and_a_map_that_only_adds():
    z4, f4 = rg.make_zmod(4), rg.make_gf(2, 2)
    # 2^15 + 3 wraps to a negative int16, 2^16 + 3 to 3
    for image in ((1 << 15) + 3, (1 << 16) + 3):
        with pytest.raises(PreconditionError, match="^hom table maps outside the target$"):
            rg.RingHom(z4, z4, np.array([0, 1, 2, image], dtype=np.int64))
    # in GF(4) = F2[x]/(x^2 + x + 1), x -> 0 is F2-linear and unital, but x^2 = x + 1 -> 1
    table = np.array([0, 1, 0, 1])
    assert _all_pairs_verdict(f4, f4, table) == "hom is not multiplicative"
    with pytest.raises(PreconditionError, match="^hom is not multiplicative$"):
        rg.RingHom(f4, f4, table)


def _valid_homs():
    z3, z4 = rg.make_zmod(3), rg.make_zmod(4)
    pr = rg.product([z4, rg.make_gf(2)])
    return {
        "Z/4 in Z/4[t]/(t^2)": rg.poly_quotient(z4, [0, 0, 1], var="t").to_quotient,
        "diagonal Z/3 in Z/3^3": rg.pair_homs(z3, rg.product([z3] * 3), [np.arange(3)] * 3),
        "Z/4 x F2 onto Z/4": rg.RingHom(pr.ring, z4, pr.components[0]),
    }


@pytest.mark.parametrize("name", sorted(_valid_homs()))
def test_hom_validation_rejects_every_one_entry_change(name):
    # a table changed at one x other than 0 and 1 breaks phi(1) + phi(x - 1) =
    # phi(x), so any validation, all-pairs or on generators, must refuse it
    hom = _valid_homs()[name]
    source, target = hom.source, hom.target
    assert rg.RingHom(source, target, hom.map.copy()).map.tolist() == hom.map.tolist()
    changed = 0
    for x in range(source.order):
        if x in (source.zero, source.one):
            continue
        for y in range(target.order):
            if y == hom.map[x]:
                continue
            table = hom.map.copy()
            table[x] = y
            with pytest.raises(PreconditionError):
                rg.RingHom(source, target, table)
            changed += 1
    assert changed == (source.order - 2) * (target.order - 1)


def _all_pairs_verdict(source, target, table):
    """The reference for RingHom validation, the all-pairs check it made
    before it checked generators only: None when table is a hom, else the
    message of the first check that fails, in blocks of rows of the source."""
    m = np.asarray(table)
    if m.shape != (source.order,):
        return "hom table has wrong length"
    if m.min(initial=0) < 0 or m.max(initial=0) >= target.order:
        return "hom table maps outside the target"
    if int(m[source.zero]) != target.zero:
        return "hom does not preserve zero"
    if int(m[source.one]) != target.one:
        return "hom does not preserve one"
    n = source.order
    chunk = max(1, (1 << 21) // max(n, 1))
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(lo + chunk, n))
        img = m[rows]
        if not np.array_equal(target.add[np.ix_(img, m)], m[source.add[rows]]):
            return "hom is not additive"
        if not np.array_equal(target.mul[np.ix_(img, m)], m[source.mul[rows]]):
            return "hom is not multiplicative"
    return None


def _verdict(source, target, table):
    try:
        rg.RingHom(source, target, table)
    except PreconditionError as e:
        return str(e)
    return None


_ZOO_NAMES = ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16", "idealization", "crt-Z12"]


def _valid_hom_corpus(extension_zoo):
    """(source, target, table) of valid homs: the zoo's embeddings, the
    inclusions and base maps of their realized nodes, quotient projections
    of the tops, product projections and diagonals, prime_hom and
    composites."""
    from ringlat import lattice as lt

    homs = []
    for name in _ZOO_NAMES:
        ext = extension_zoo(name)
        homs.append(ext.embed)
        for node in lt.intermediate_algebras(ext).nodes:
            real = lt.realize(node)
            homs += [real.include, real.from_base]
        for ideal in il.all_ideals(ext.top):
            if not ideal.is_whole:
                proj = rg.quotient(ext.top, ideal).projection
                homs += [proj, rg.compose(ext.embed, proj)]
        if ext.top.order <= 16:
            pair = rg.product([ext.top, ext.top])
            homs.append(rg.pair_homs(ext.base, pair, [ext.embed.map] * 2))
            homs += [rg.RingHom(pair.ring, ext.top, c) for c in pair.components]
    f2, z3, z4 = rg.make_gf(2), rg.make_zmod(3), rg.make_zmod(4)
    pr = rg.product([z4, rg.make_gf(3), f2])
    homs += [rg.RingHom(pr.ring, f, c) for f, c in zip(pr.factors, pr.components)]
    homs.append(rg.pair_homs(z3, rg.product([z3] * 3), [np.arange(3)] * 3))
    homs += [rg.prime_hom(f2, rg.make_gf(2, 4)), rg.prime_hom(z4, rg.product([z4, f2]).ring)]
    return [(h.source, h.target, h.map) for h in homs]


def _relabeled_hom(source, target, table, seed):
    """The same hom between seeded relabelings of its source and target."""
    rng = np.random.default_rng(seed)
    ps, pt = rng.permutation(source.order), rng.permutation(target.order)
    out = np.empty(source.order, dtype=np.int32)
    out[ps] = pt[table]
    return _relabeled(source, ps), _relabeled(target, pt), out


def _f2_linear_unital_maps(rng, count):
    """Unital maps F2^4 -> F2^4 that are F2-linear, from random images of
    the coordinate idempotents summing to one: additive, mostly not
    multiplicative."""
    pr = rg.product([rg.make_gf(2)] * 4)
    ring = pr.ring
    basis = [int(rg.product_index([2] * 4, np.eye(4, dtype=int)[i])) for i in range(4)]
    maps = []
    for _ in range(count):
        imgs = list(rng.integers(0, ring.order, 3))
        imgs.append(_minus(ring, ring.one, int(ring.add[ring.add[imgs[0], imgs[1]], imgs[2]])))
        table = np.zeros(ring.order, dtype=np.int32)
        for x in range(ring.order):
            for i, e in enumerate(basis):
                if ring.mul[x, e] == e:
                    table[x] = ring.add[table[x], imgs[i]]
        maps.append((ring, ring, table))
    return maps


def test_generator_check_accepts_exactly_what_all_pairs_accepts(extension_zoo):
    # valid homs and their relabelings, each with one-entry changes at six
    # seeded places (test_hom_validation_rejects_every_one_entry_change makes
    # every change to a few) and with random maps that fix zero and one;
    # F2-linear unital maps; a short and an out-of-range table: the same
    # verdict and message everywhere
    rng = np.random.default_rng(2024)
    valid = _valid_hom_corpus(extension_zoo)
    valid += [_relabeled_hom(*hom, seed) for seed, hom in enumerate(valid)]
    cases = list(_f2_linear_unital_maps(rng, 40))
    for source, target, table in valid:
        cases.append((source, target, table))
        for x in rng.choice(source.order, min(6, source.order), replace=False):
            changed = table.copy()
            changed[x] = (table[x] + rng.integers(1, target.order)) % target.order
            cases.append((source, target, changed))
        for _ in range(2):
            noise = rng.integers(0, target.order, source.order).astype(np.int32)
            noise[[source.zero, source.one]] = target.zero, target.one
            cases.append((source, target, noise))
    source, target, table = valid[0]
    cases += [(source, target, table[:-1]), (source, target, table + target.order)]
    seen = set()
    for source, target, table in cases:
        want = _all_pairs_verdict(source, target, table)
        assert _verdict(source, target, table) == want, (source, target, table.tolist())
        seen.add(want)
    assert seen == {None, "hom table has wrong length", "hom table maps outside the target",
                    "hom does not preserve zero", "hom does not preserve one",
                    "hom is not additive", "hom is not multiplicative"}


def _zoo_rings(extension_zoo):
    rings = [rg.make_zmod(12), rg.make_gf(3, 2), rg.product([rg.make_zmod(4), rg.make_gf(3)]).ring]
    for name in _ZOO_NAMES:
        ext = extension_zoo(name)
        rings += [ext.base, ext.top]
    return rings


def test_additive_generators_are_least_outside_and_span_the_group(extension_zoo):
    rings = _zoo_rings(extension_zoo)
    rings += [_relabeled(r, _relabeling(r.order)) for r in rings]
    for ring in rings:
        gens = ring.additive_generators
        assert len(gens) <= math.log2(ring.order)
        for i, g in enumerate(gens):
            span = rg.closure_mask(ring.order, [ring.zero, *gens[:i]], (ring.add,))
            assert g == np.flatnonzero(~span)[0], ring  # the least element outside
        assert rg.closure_mask(ring.order, [ring.zero, *gens], (ring.add,)).all(), ring


def test_hom_validation_reads_n_entries_per_generator_of_each_table():
    # Z/2[t]/(t^12), order 4096 and twelve generators: the identity hom reads
    # 4 n |G| table entries, against 4 n^2 for all pairs
    ring = rg.poly_quotient(rg.make_gf(2), [0] * 12 + [1], var="t").ring
    gens = ring.additive_generators
    assert ring.order == 4096 and len(gens) == 12
    for name in ("add", "mul"):
        object.__setattr__(ring, name, getattr(ring, name).view(_CountingTable))
    _CountingTable.reads = 0
    rg.identity_hom(ring)
    assert _CountingTable.reads <= 4 * ring.order * len(gens)


def _kronecker_broadcast(prev, t):
    """The product table as one 4-D broadcast, the reference for _kronecker."""
    n = len(prev) * len(t)
    return (prev[:, None, :, None] * len(t) + t[None, :, None, :]).reshape(n, n)


def _tables(m, k):
    rng = np.random.default_rng(m * 7919 + k)
    return (rng.integers(0, m, (m, m)).astype(np.int32), rng.integers(0, k, (k, k)).astype(np.int32))


@pytest.mark.parametrize("m, k", [(1, 2), (2, 2), (120, 15), (64, 64), (2048, 2), (2, 2048)])
def test_kronecker_matches_the_broadcast_formula(m, k):
    prev, t = _tables(m, k)
    got = rg._kronecker(prev, t)
    assert got.dtype == rg.ELEMENT == np.int16 and np.array_equal(got, _kronecker_broadcast(prev, t))


@pytest.mark.parametrize("m, k", [(2048, 2), (2, 2048)])
def test_kronecker_peak_memory_is_no_higher_than_the_broadcast_formula(m, k):
    # both shapes are within the default bound: (Z/2)^12 and Z/2 x GF(2^11)
    prev, t = _tables(m, k)
    peaks = []
    for build in (_kronecker_broadcast, rg._kronecker):
        build(prev, t)  # the first call may fill numpy's caches
        tracemalloc.start()
        build(prev, t)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_compose_and_identity(z4):
    ident = rg.identity_hom(z4)
    sq = rg.product([z4, z4])
    diagonal = rg.pair_homs(z4, sq, [np.arange(4)] * 2)
    assert np.array_equal(rg.compose(ident, diagonal).map, diagonal.map)
    for c in sq.components:  # either projection undoes the diagonal
        assert np.array_equal(rg.compose(diagonal, rg.RingHom(sq.ring, z4, c)).map, ident.map)


def _neg_by_scan(ring):
    """The additive inverses by a scan of the whole add table for its
    zeros: the reference for FiniteRing.neg."""
    i, j = np.nonzero(ring.add == ring.zero)
    out = np.empty(ring.order, dtype=np.int64)
    out[i] = j
    return out


def _check_neg(ring, seed):
    assert np.array_equal(ring.neg, _neg_by_scan(ring)), ring
    perm = np.random.default_rng(seed).permutation(ring.order).astype(rg.ELEMENT)
    moved = _relabeled(ring, perm)
    assert np.array_equal(moved.neg, _neg_by_scan(moved)), ring
    # relabeling carries the inverses over: -perm[x] = perm[-x]
    assert np.array_equal(moved.neg[perm], perm[ring.neg]), ring


def test_neg_is_the_row_of_minus_one_on_the_zoo(extension_zoo):
    for seed, ring in enumerate(_zoo_rings(extension_zoo)):
        _check_neg(ring, seed)


def _clmul(a, b, bits):
    """The carry-less product of the bit vectors a and b (int64 arrays of
    the given width): the product of polynomials over F2."""
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(bits):
        out ^= ((a >> i) & 1) * (b << i)
    return out


def _gf2_reduce(x, monic):
    """x (a polynomial over F2 as bits, degree below 2k - 1) modulo monic,
    a little-endian coefficient list of degree k."""
    k = len(monic) - 1
    f = sum(c << i for i, c in enumerate(monic))
    for top in range(2 * k - 2, k - 1, -1):
        x = np.where((x >> top) & 1, x ^ (f << (top - k)), x)
    return x


def _digits_op(op, a, b):
    """Componentwise op of Z/64 x Z/64, the first factor most significant."""
    return op(a // 64, b // 64) % 64 * 64 + op(a % 64, b % 64) % 64


# order-4096 rings with their add and mul by int64 formulas on element
# indices a, b: every index below 4096 reaches the narrow tables
_ORDER_4096 = {
    "Z/4096": (lambda: rg.make_zmod(4096),
               lambda a, b: ((a + b) % 4096, a * b % 4096)),
    "GF(2^12)": (lambda: rg.make_gf(2, 12),
                 lambda a, b: (a ^ b, _gf2_reduce(_clmul(a, b, 12), rg.find_irreducible(2, 12)))),
    "(Z/2)^12": (lambda: rg.product([rg.make_zmod(2)] * 12).ring,
                 lambda a, b: (a ^ b, a & b)),
    "Z/2[t]/(t^12)": (lambda: rg.poly_quotient(rg.make_zmod(2), [0] * 12 + [1], var="t").ring,
                      lambda a, b: (a ^ b, _clmul(a, b, 12) & 4095)),
    "Z/64 x Z/64": (lambda: rg.product([rg.make_zmod(64)] * 2).ring,
                    lambda a, b: (_digits_op(np.add, a, b), _digits_op(np.multiply, a, b))),
}


@pytest.mark.parametrize("name", list(_ORDER_4096))
def test_order_4096_tables_match_the_int64_formulas(name):
    build, formulas = _ORDER_4096[name]
    ring = build()
    assert ring.order == 4096
    rows = np.concatenate(([0, 1, 4095], np.random.default_rng(4096).choice(4096, 13, replace=False)))
    add, mul = formulas(rows[:, None].astype(np.int64), np.arange(4096, dtype=np.int64)[None, :])
    assert np.array_equal(ring.add[rows], add) and np.array_equal(ring.mul[rows], mul)
    # commutative tables: the same rows read as columns
    assert np.array_equal(ring.add[:, rows].T, add) and np.array_equal(ring.mul[:, rows].T, mul)
    _check_neg(ring, 4096)


def test_order_4096_idealization_neg_is_the_row_of_minus_one():
    # Z/64 (+) (Z/8 (+) Z/8), of order 64 * 64
    ring = md.idealize(md.module_from_cyclics(rg.make_zmod(64), [[8], [8]])).top
    assert ring.order == 4096
    _check_neg(ring, 1)


def test_make_zmod_peak_memory_is_near_its_two_tables():
    rg.make_zmod(4096)  # the first call may fill numpy's caches
    tracemalloc.start()
    ring = rg.make_zmod(4096)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tables = ring.add.nbytes + ring.mul.nbytes
    assert tables == 2 * 4096 * 4096 * 2
    assert peak <= 1.5 * tables


def _diagonal_of_z4_squared():
    square = rg.product([rg.make_zmod(4), rg.make_zmod(4)]).ring
    return rg.subset_ring(square, np.array([0, 5, 10, 15]), 5, "diagonal")[0]


# one small output of each constructor of rings and modules
_CONSTRUCTORS = {
    "make_zmod": lambda: rg.make_zmod(12),
    "make_gf": lambda: rg.make_gf(3, 2),
    "make_gf prime": lambda: rg.make_gf(5),
    "product": lambda: rg.product([rg.make_zmod(4), rg.make_gf(2, 2), rg.make_zmod(3)]).ring,
    "quotient": lambda: rg.quotient(rg.make_zmod(12), [0, 4, 8]).ring,
    "poly_quotient": lambda: rg.poly_quotient(rg.make_zmod(4), [0, 0, 0, 1], var="t").ring,
    "poly_quotient with relations": lambda: rg.poly_quotient(
        rg.make_zmod(4), [0, 0, 0, 1], relations=[[0, 0, 2]], var="t").ring,
    "subset_ring": _diagonal_of_z4_squared,
    "realize": lambda: lt.realize(
        lt.intermediate_algebras(lt.power_extension(rg.make_zmod(4), 2)).nodes[1]).ring,
    "idealize": lambda: md.idealize(md.module_from_cyclics(rg.make_zmod(4), [[2], []])).top,
    "module_from_cyclics": lambda: md.module_from_cyclics(rg.make_zmod(12), [[4], [6]]),
    "module_from_cyclics zero": lambda: md.module_from_cyclics(rg.make_zmod(12), []),
    "quotient_module": lambda: md.quotient_module(
        md.module_from_cyclics(rg.make_zmod(12), [[4], [6]]), [0, 3]).module,
}


@pytest.mark.parametrize("name", list(_CONSTRUCTORS))
def test_every_constructor_builds_narrow_read_only_tables(name, monkeypatch):
    converted, as_table = [], rg._as_table

    def watched(a):
        t = np.asarray(a)
        if t.ndim == 2 and t.dtype != rg.ELEMENT:
            converted.append(t.dtype)
        return as_table(a)

    monkeypatch.setattr(rg, "_as_table", watched)
    monkeypatch.setattr(md, "_as_table", watched)
    made = _CONSTRUCTORS[name]()
    assert converted == []  # built in ELEMENT, not converted on the way in
    monkeypatch.undo()
    if isinstance(made, md.FiniteModule):
        tables = (made.add, made.action)
    else:
        moved = _relabeled(made, _relabeling(made.order))
        tables = (made.add, made.mul, moved.add, moved.mul)
    for t in tables:
        assert t.dtype == rg.ELEMENT == np.int16
        assert t.flags.c_contiguous and not t.flags.writeable


def test_element_arrays_use_the_one_dtype(extension_zoo):
    z12 = rg.make_zmod(12)
    pr = rg.product([rg.make_zmod(4), rg.make_gf(3)])
    qr = rg.quotient(z12, [0, 4, 8])
    pq = rg.poly_quotient(rg.make_zmod(4), [0, 0, 1], relations=[[0, 2]], var="t")
    real = lt.realize(lt.intermediate_algebras(extension_zoo("F2-in-F16")).nodes[1])
    square = pr.ring
    _, lookup = rg.subset_ring(square, np.arange(square.order), square.one, "whole")
    arrays = [z12.neg, z12.multiples_of_one, rg.cosets(z12.add, [0, 6])[0], lookup,
              qr.projection.map, pq.to_quotient.map, real.include.map, real.from_base.map,
              rg.prime_hom(rg.make_zmod(2), rg.make_gf(2, 3)).map, rg.identity_hom(z12).map,
              *pr.components, extension_zoo("idealization").embed.map]
    for a in arrays:
        assert a.dtype == rg.ELEMENT


def test_narrowing_refuses_what_would_wrap():
    # int16 holds indices below 2^15: a wider entry is refused, never wrapped
    with pytest.raises(SizeLimitError):
        rg.FiniteRing(2, np.array([[0, 1], [1, 1 << 16]]), np.array([[0, 0], [0, 1]]), 0, 1, "wide")
    z4 = rg.make_zmod(4)
    with pytest.raises(PreconditionError, match="maps outside the target"):
        rg.RingHom(z4, z4, np.array([0, 1 + (1 << 16), 2, 3]))
