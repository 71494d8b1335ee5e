import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import (NotApplicableError, PreconditionError,
                            SizeLimitError)


@pytest.fixture(scope="module")
def f2_cube():
    f2 = rg.make_gf(2)
    ext = lt.power_extension(f2, 3)
    return ext, lt.intermediate_algebras(ext)


def test_extension_rejects_non_injective(z4, f2):
    collapse = rg.RingHom(z4, f2, np.array([0, 1, 0, 1]))
    with pytest.raises(PreconditionError):
        lt.Extension(z4, f2, collapse)


def test_field_cube_lattice(f2_cube):
    ext, rep = f2_cube
    assert rep.count == 5
    assert rep.length == 2
    assert len(rep.nodes[rep.bottom_index].elements) == 2
    assert rep.nodes[rep.top_index].is_top
    chains = lt.length_and_chains(rep)
    assert chains.lengths == {2: 3}  # graded: every maximal chain has two covers


def test_lattice_respects_bound(f3):
    ext = lt.power_extension(f3, 4, max_order=128)
    with pytest.raises(SizeLimitError):
        lt.intermediate_algebras(ext, max_order=16)


def test_node_order_invariance(f2_cube):
    ext, rep = f2_cube
    want = {n.elements for n in rep.nodes}

    @given(st.permutations(list(range(8))))
    @settings(max_examples=15, deadline=None)
    def check(perm):
        again = lt.intermediate_algebras(ext, element_order=perm)
        assert {n.elements for n in again.nodes} == want

    check()


def test_diagonal_square_of_z4(z4):
    ext = lt.power_extension(z4, 2)
    rep = lt.intermediate_algebras(ext)
    assert rep.count == 3
    battery = lt.predicate_battery(ext, rep)
    assert battery == {
        "integral": True,
        "infra_integral": True,
        "subintegral": False,
        "seminormal": False,
        "t_closed": False,
        "quadratic": True,
        "delta": True,
        "delta0": True,
        "pointwise_minimal": False,
    }


def test_trichotomy_of_the_three_quadratic_covers(f2, f4, f2_eps):
    decomposed = lt.power_extension(f2, 2)
    res = lt.classify_minimal(decomposed)
    assert res.kind == "decomposed"
    assert res.crucial.is_zero

    inert = lt.Extension(f2, f4, rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    res = lt.classify_minimal(inert)
    assert res.kind == "inert"
    assert res.residue_degree == 2

    pq = rg.poly_quotient(f2, [0, 0, 1], var="t")
    ramified = lt.Extension(f2, pq.ring, pq.to_quotient)
    res = lt.classify_minimal(ramified)
    assert res.kind == "ramified"


def test_classify_needs_two_nodes(f2_cube):
    ext, rep = f2_cube
    assert not lt.is_minimal(ext, rep)
    res = lt.classify_minimal(ext, rep)
    assert res.kind == "not_minimal"
    assert res.crucial is None


def test_gilbert_bijection(f3):
    ext = lt.power_extension(f3, 2)
    gb = lt.gilbert_bijection(ext)
    assert len(gb.pairs) == 2
    ideal_orders = sorted(j.order for j, _ in gb.pairs)
    assert ideal_orders[-1] == 3


def test_gilbert_needs_single_generator(f2_cube):
    ext, rep = f2_cube
    with pytest.raises(NotApplicableError):
        lt.gilbert_bijection(ext, rep)


def test_irreducible_decompositions_recompose(f2_cube):
    ext, rep = f2_cube
    for i in range(rep.count):
        dec = lt.irreducible_decomposition(rep, i)
        assert dec.node == i
    bottom = lt.irreducible_decomposition(rep, rep.bottom_index)
    assert len(bottom.meet_factors) >= 2  # the base is the meet of proper nodes here


def test_special_minimal_ramified(f2):
    base = rg.poly_quotient(f2, [0, 0, 1], var="t").ring
    t = next(i for i in range(4) if i not in (base.zero, base.one)
             and base.mul[i, i] == base.zero)
    with_rel = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], relations=[[0, t]], var="x")
    assert lt.is_special_minimal_ramified(
        lt.Extension(base, with_rel.ring, with_rel.to_quotient))
    without = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], var="x")
    assert not lt.is_special_minimal_ramified(
        lt.Extension(base, without.ring, without.to_quotient))


def test_pointwise_minimal_cases(f2, f4):
    sq = lt.power_extension(f4, 2)
    assert lt.is_pointwise_minimal(sq)
    assert lt.is_minimal(sq)
    cube = lt.power_extension(f2, 3)
    assert lt.is_pointwise_minimal(cube)
    assert not lt.is_minimal(cube)


def test_report_serialization(f2_cube):
    _, rep = f2_cube
    data = rep.to_json()
    assert data["schema"] == 1
    assert data["count"] == 5
    assert len(data["nodes"]) == 5
    dot = rep.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(rep.hasse_edges)


def test_product_extension_combines(f2, z4):
    eps = rg.poly_quotient(z4, [0, 0, 1], var="u")
    parts = [lt.power_extension(f2, 2), lt.Extension(z4, eps.ring, eps.to_quotient)]
    ext = lt.product_extension(parts)
    assert ext.base.order == 8
    assert ext.top.order == 64
    assert lt.intermediate_algebras(ext).length == sum(
        lt.intermediate_algebras(e).length for e in parts)


def test_subalgebra_navigation(f2_cube):
    ext, rep = f2_cube
    node = rep.nodes[rep.bottom_index]
    low = lt.lower_extension(node)
    assert low.top.order == 2
    up = lt.upper_extension(node)
    assert up.base.order == 2 and up.top.order == 8
    real = lt.realize(node)
    rg.check_ring_axioms(real.ring)


def _delta0_by_enumeration(ext):
    """Reference: every base-submodule of the top containing the image is a
    ring, with the submodules enumerated directly in the top."""
    top = ext.top
    subs = rg.enumerate_closed_subsets(
        top.order, list(ext.image), internal=(top.add,), absorbing=(top.mul[ext.embed.map],))
    for sm in subs:
        idx = np.flatnonzero(sm)
        if not sm[top.mul[np.ix_(idx, idx)]].all():
            return False
    return True


@pytest.mark.parametrize("base, top, quadratic, delta0", [
    ("Z/2", "Z/2 x Z/2 x Z/2", True, True),
    ("Z/2", "Z/2 x Z/2 x Z/2 x Z/2", True, False),
    ("Z/2", "Z/2 x Z/2 x Z/2 x Z/2 x Z/2", True, False),
    ("Z/4", "Z/4 x Z/4", True, True),
    ("GF(2)", "GF(2^2)", True, True),
    ("Z/4", "Z/4[t]/(t^2)", True, True),
    ("Z/4", "Z/4[t]/(t^2-2, 2*t)", True, True),
    ("GF(2)", "GF(2^3)", False, False),
    ("Z/2", "Z/2[t]/(t^3)", False, False),
    ("Z/2", "Z/2[t]/(t^2) x Z/2", False, False),
    ("Z/2", "Z/2[t]/(t^2) x Z/2[t]/(t^2)", False, False),
    ("Z/3", "GF(3^2) x Z/3", False, False),
])
def test_delta0_matches_submodule_enumeration(base, top, quadratic, delta0, brute_force_cosets):
    from ringlat.cli import resolve_extension

    ext = resolve_extension(base, top, None)
    assert lt.is_quadratic(ext) is quadratic
    assert _delta0_by_enumeration(ext) is delta0
    assert lt.is_delta0(ext) is delta0
    battery = lt.predicate_battery(ext)
    assert (battery["quadratic"], battery["delta0"]) == (quadratic, delta0)
    # the coset step that turns S into the base-module S/R
    classes = brute_force_cosets(ext.top.add, ext.image)
    coset_of, reps = rg.cosets(ext.top.add, np.asarray(ext.image))
    assert list(reps) == [min(c) for c in classes]
    assert [set(np.flatnonzero(coset_of == k).tolist()) for k in range(len(classes))] \
        == [set(c) for c in classes]


def test_spectral_predicates_past_the_lattice_bound():
    # order 729 exceeds the ideal-enumeration bound of 512
    ext = lt.power_extension(rg.make_zmod(27), 2)
    assert lt.is_infra_integral(ext) is True
    assert lt.is_subintegral(ext) is False
