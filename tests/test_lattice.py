import numpy as np
import pytest

from ringlat import closures as cl
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import (NotApplicableError, PreconditionError,
                            SizeLimitError)
from ringlat.ideals import all_ideals


@pytest.fixture(scope="module")
def f2_cube():
    f2 = rg.make_gf(2)
    ext = lt.power_extension(f2, 3)
    return ext, lt.intermediate_algebras(ext)


def test_extension_rejects_non_injective(z4, f2):
    collapse = rg.RingHom(z4, f2, np.array([0, 1, 0, 1]))
    with pytest.raises(PreconditionError):
        lt.Extension(collapse)


def test_extension_reads_its_rings_from_the_embedding(z4):
    ext = lt.power_extension(z4, 2)
    assert ext.base is ext.embed.source is z4
    assert ext.top is ext.embed.target


def test_field_cube_lattice(f2_cube):
    ext, rep = f2_cube
    assert rep.count == 5
    assert rep.length == 2
    assert len(rep.nodes[0].elements) == 2
    assert rep.nodes[-1].is_top
    assert rep.chain_lengths == {2: 3}  # graded: every maximal chain has two covers


def test_partition_lattice_chain_count(f2):
    rep = lt.intermediate_algebras(lt.power_extension(f2, 5))
    # the partition lattice of 5 points has 5!4!/2^4 maximal chains (OEIS A006472)
    assert rep.count == 52
    assert (rep.chain_lengths, rep.length) == ({4: 180}, 4)


def test_chain_lengths_of_a_pentagon():
    # N5 on {a, b, c}: {} < {a} < {a,b,c} and {} < {b} < {b,c} < {a,b,c}
    sets = [(), (0,), (1,), (1, 2), (0, 1, 2)]
    masks = [np.isin(np.arange(3), s) for s in sets]
    edges = ((0, 1), (0, 2), (1, 4), (2, 3), (3, 4))
    assert lt.poset_structure(masks) == (edges, {2: 1, 3: 1}, (0, 2, 3, 4))


_ZOO = ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16", "idealization", "crt-Z12"]


def _assert_poset_matches_oracle(masks, structure, brute_force_hasse, brute_force_chains):
    edges, chain_lengths, chain = structure
    assert list(edges) == brute_force_hasse(masks)
    assert (chain_lengths, chain) == brute_force_chains(edges, 0, len(masks) - 1)


@pytest.mark.parametrize("name", _ZOO)
def test_lattice_poset_matches_oracle(extension_zoo, name, brute_force_hasse, brute_force_chains):
    rep = lt.intermediate_algebras(extension_zoo(name))
    structure = (rep.hasse_edges, rep.chain_lengths, rep.maximal_chain)
    _assert_poset_matches_oracle([n.mask for n in rep.nodes], structure, brute_force_hasse,
                                 brute_force_chains)
    assert rep.length == max(rep.chain_lengths) == len(rep.maximal_chain) - 1


@pytest.mark.parametrize("build", [
    lambda: rg.product([rg.make_zmod(16)] * 2).ring,
    lambda: rg.product([rg.make_gf(2)] * 5).ring,
], ids=["Z16xZ16", "F2^5"])
def test_ideal_poset_matches_oracle(build, brute_force_hasse, brute_force_chains):
    masks = [i.mask for i in all_ideals(build())]
    _assert_poset_matches_oracle(masks, lt.poset_structure(masks), brute_force_hasse, brute_force_chains)


def test_lattice_respects_bound(f3):
    ext = lt.power_extension(f3, 4)
    with pytest.raises(SizeLimitError):
        lt.intermediate_algebras(ext, max_order=16)


def _bounded_calls():
    """For each layer, a function that builds an input of order 25-32 and
    returns the call that checks it against RINGLAT_MAX_ORDER."""
    def product():
        f5 = rg.make_gf(5)
        return lambda: rg.product([f5, f5])

    def idealize():
        f5 = rg.make_gf(5)
        m = md.module_from_ring(f5)
        return lambda: md.idealize(m)

    def ideals():
        z27 = rg.make_zmod(27)
        return lambda: all_ideals(z27)

    def submodules():
        m = md.module_from_ring(rg.make_zmod(32))
        return lambda: md.submodules(m)

    def intermediate_algebras():
        ext = lt.power_extension(rg.make_gf(3), 3)
        return lambda: lt.intermediate_algebras(ext)

    return {f.__name__: f for f in (product, idealize, ideals, submodules, intermediate_algebras)}


@pytest.mark.parametrize("layer", sorted(_bounded_calls()))
def test_env_bound_applies_in_every_layer(monkeypatch, layer):
    call = _bounded_calls()[layer]()
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "16")
    with pytest.raises(SizeLimitError):
        call()
    monkeypatch.delenv("RINGLAT_MAX_ORDER")
    call()


def test_max_order_overrides_the_env_bound_for_one_lattice(monkeypatch):
    ext = lt.power_extension(rg.make_gf(3), 3)
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "16")
    assert lt.intermediate_algebras(ext, max_order=27).count == 5  # Bell(3)
    with pytest.raises(SizeLimitError):
        lt.intermediate_algebras(ext)


@pytest.mark.parametrize("name", _ZOO)
def test_bottom_is_node_zero_and_top_the_last_node(extension_zoo, name):
    rep = lt.intermediate_algebras(extension_zoo(name))
    assert rep.nodes[0].is_base and rep.nodes[-1].is_top
    data = rep.to_json()
    assert (data["bottom"], data["top_node"]) == (0, rep.count - 1)
    assert rep.maximal_chain[0] == 0 and rep.maximal_chain[-1] == rep.count - 1


def _relabel(ext, perm):
    """The same extension with each top element x renamed perm[x]."""
    top = ext.top
    inv = np.argsort(perm)
    moved = rg.FiniteRing(top.order, perm[top.add[np.ix_(inv, inv)]], perm[top.mul[np.ix_(inv, inv)]],
                          int(perm[top.zero]), int(perm[top.one]), top.label)
    return lt.Extension(rg.RingHom(ext.base, moved, perm[ext.embed.map]))


def _over_base(ext):
    """The top as a module over the base."""
    top = ext.top
    return md.FiniteModule(ext.base, top.order, top.add, top.zero, top.mul[ext.embed.map])


@pytest.mark.parametrize("name", _ZOO)
def test_relabeling_carries_everything_over(extension_zoo, name):
    ext = extension_zoo(name)
    perm = np.random.default_rng(ext.top.order).permutation(ext.top.order).astype(np.int32)
    moved = _relabel(ext, perm)

    def carry(elements):
        return tuple(sorted(int(perm[x]) for x in elements))

    rep, rep2 = lt.intermediate_algebras(ext), lt.intermediate_algebras(moved)
    to_new = [rep2.node_index(carry(n.elements)) for n in rep.nodes]
    assert sorted(to_new) == list(range(rep2.count))
    assert {(to_new[a], to_new[b]) for a, b in rep.hasse_edges} == set(rep2.hasse_edges)
    assert (to_new[0], to_new[-1]) == (0, rep2.count - 1)
    assert (rep.count, rep.chain_lengths) == (rep2.count, rep2.chain_lengths)
    assert lt.classify_minimal(rep).kind == lt.classify_minimal(rep2).kind
    assert carry(cl.seminormalization(ext).elements) == cl.seminormalization(moved).elements
    assert carry(cl.t_closure(ext).elements) == cl.t_closure(moved).elements
    assert lt.predicate_battery(rep) == lt.predicate_battery(rep2)
    assert ({carry(i.elements) for i in all_ideals(ext.top)}
            == {i.elements for i in all_ideals(moved.top)})
    assert ({carry(n) for n in md.submodules(_over_base(ext)).nodes}
            == set(md.submodules(_over_base(moved)).nodes))


def test_diagonal_square_of_z4(z4):
    ext = lt.power_extension(z4, 2)
    rep = lt.intermediate_algebras(ext)
    assert rep.count == 3
    battery = lt.predicate_battery(rep)
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
    def classify(ext):
        return lt.classify_minimal(lt.intermediate_algebras(ext))

    res = classify(lt.power_extension(f2, 2))
    assert res.kind == "decomposed"
    assert res.crucial.is_zero

    res = classify(lt.Extension(rg.RingHom(f2, f4, np.array([f4.zero, f4.one]))))
    assert res.kind == "inert"
    assert res.residue_degree == 2

    pq = rg.poly_quotient(f2, [0, 0, 1], var="t")
    res = classify(lt.Extension(pq.to_quotient))
    assert res.kind == "ramified"


def test_classify_needs_two_nodes(f2_cube):
    _, rep = f2_cube
    assert rep.count != 2
    res = lt.classify_minimal(rep)
    assert res.kind == "not_minimal"
    assert res.crucial is None


def test_gilbert_bijection(f3):
    gb = lt.gilbert_bijection(lt.intermediate_algebras(lt.power_extension(f3, 2)))
    assert len(gb.pairs) == 2
    ideal_orders = sorted(j.order for j, _ in gb.pairs)
    assert ideal_orders[-1] == 3


def test_gilbert_needs_single_generator(f2_cube):
    _, rep = f2_cube
    with pytest.raises(NotApplicableError):
        lt.gilbert_bijection(rep)


def test_irreducible_decompositions_recompose(f2_cube):
    ext, rep = f2_cube
    for i in range(rep.count):
        dec = lt.irreducible_decomposition(rep, i)
        assert dec.node == i
    bottom = lt.irreducible_decomposition(rep, 0)
    assert len(bottom.meet_factors) >= 2  # the base is the meet of proper nodes here


@pytest.mark.parametrize("poset", [
    lambda: lt.intermediate_algebras(lt.power_extension(rg.make_gf(2), 4)),
    lambda: md.submodules(md.module_from_cyclics(rg.make_zmod(4), [[2], [], [0]])),
], ids=["F2^4 subalgebras", "Z/4 module submodules"])
def test_grouped_covers_match_an_edge_scan(poset):
    rep = poset()
    assert rep.count > 10
    for i in range(rep.count):
        assert rep.upper_covers[i] == tuple(b for a, b in rep.hasse_edges if a == i)
        assert rep.lower_covers[i] == tuple(a for a, b in rep.hasse_edges if b == i)
    assert lt.meet_irreducible_nodes(rep) == {
        i for i in range(rep.count)
        if i == rep.count - 1 or sum(a == i for a, _ in rep.hasse_edges) == 1}
    assert lt.join_irreducible_nodes(rep) == {
        i for i in range(rep.count) if i == 0 or sum(b == i for _, b in rep.hasse_edges) == 1}


def test_special_minimal_ramified(f2):
    base = rg.poly_quotient(f2, [0, 0, 1], var="t").ring
    t = next(i for i in range(4) if i not in (base.zero, base.one)
             and base.mul[i, i] == base.zero)
    with_rel = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], relations=[[0, t]], var="x")
    assert lt.is_special_minimal_ramified(lt.intermediate_algebras(lt.Extension(with_rel.to_quotient)))
    without = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], var="x")
    assert not lt.is_special_minimal_ramified(lt.intermediate_algebras(lt.Extension(without.to_quotient)))


def test_pointwise_minimal_cases(f2, f4):
    sq = lt.intermediate_algebras(lt.power_extension(f4, 2))
    assert lt.is_pointwise_minimal(sq)
    assert sq.count == 2
    cube = lt.intermediate_algebras(lt.power_extension(f2, 3))
    assert lt.is_pointwise_minimal(cube)
    assert cube.count != 2


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
    parts = [lt.power_extension(f2, 2), lt.Extension(eps.to_quotient)]
    ext = lt.product_extension(parts)
    assert ext.base.order == 8
    assert ext.top.order == 64
    assert lt.intermediate_algebras(ext).length == sum(
        lt.intermediate_algebras(e).length for e in parts)


def test_subalgebra_navigation(f2_cube):
    ext, rep = f2_cube
    node = rep.nodes[0]
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
    battery = lt.predicate_battery(lt.intermediate_algebras(ext))
    assert (battery["quadratic"], battery["delta0"]) == (quadratic, delta0)
    # the coset step that turns S into the base-module S/R
    classes = brute_force_cosets(ext.top.add, ext.image)
    coset_of, reps = rg.cosets(ext.top.add, np.asarray(ext.image))
    assert list(reps) == [min(c) for c in classes]
    assert [set(np.flatnonzero(coset_of == k).tolist()) for k in range(len(classes))] \
        == [set(c) for c in classes]


@pytest.mark.parametrize("name", _ZOO)
def test_one_atom_per_coset_of_the_bottom(extension_zoo, name):
    ext = extension_zoo(name)
    top = ext.top
    ops = (top.add, top.mul)
    first = rg.closure_mask(top.order, list(ext.image), ops)

    def atoms(elements):
        return {rg.extend_closure_mask(top.order, first, [s], ops).tobytes()
                for s in elements if not first[s]}

    _, reps = rg.cosets(top.add, np.flatnonzero(first))
    assert atoms(reps) == atoms(range(top.order))


@pytest.mark.parametrize("name", _ZOO)
def test_pointwise_minimal_matches_every_element(extension_zoo, name):
    ext = extension_zoo(name)
    top = ext.top
    rep = lt.intermediate_algebras(ext)
    base = rep.nodes[0].mask
    covers = {rep.nodes[b].elements for a, b in rep.hasse_edges if a == 0}
    want = all(rg.mask_elements(rg.extend_closure_mask(top.order, base, [t], (top.add, top.mul)))
               in covers for t in range(top.order) if not base[t])
    assert lt.is_pointwise_minimal(rep) is want


def test_spectral_predicates_past_the_lattice_bound():
    # order 729 exceeds the ideal-enumeration bound of 512
    ext = lt.power_extension(rg.make_zmod(27), 2)
    assert lt.is_infra_integral(ext) is True
    assert lt.is_subintegral(ext) is False
