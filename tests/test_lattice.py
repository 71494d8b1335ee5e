import itertools

import numpy as np
import pytest

from ringlat import cli
from ringlat import closures as cl
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat import verify as vf
from ringlat.errors import (InternalCheckError, NotApplicableError,
                            PreconditionError, RinglatError, SizeLimitError)
from ringlat.ideals import all_ideals, conductor, contains


def _is_base(node):
    """The node is the image of the base."""
    return node.elements == node.extension.image


def _is_top(node):
    """The node is the whole top ring."""
    return node.order == node.extension.top.order


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
    assert _is_top(rep.nodes[-1])
    assert rep.chain_lengths == {2: 3}  # graded: every maximal chain has two covers


def test_partition_lattice_chain_count(f2):
    rep = lt.intermediate_algebras(lt.power_extension(f2, 5))
    # the partition lattice of 5 points has 5!4!/2^4 maximal chains (OEIS A006472)
    assert rep.count == 52
    assert (rep.chain_lengths, rep.length) == ({4: 180}, 4)


def test_chain_lengths_of_a_pentagon(brute_force_chains):
    # N5 on {a, b, c}: {} < {a} < {a,b,c} and {} < {b} < {b,c} < {a,b,c}
    sets = [(), (0,), (1,), (1, 2), (0, 1, 2)]
    masks = [np.isin(np.arange(3), s) for s in sets]
    edges = ((0, 1), (0, 2), (1, 4), (2, 3), (3, 4))
    assert lt.poset_structure(masks) == edges
    pentagon = lt.Poset(tuple(sets), edges)
    assert (pentagon.chain_lengths, pentagon.maximal_chain) == ({2: 1, 3: 1}, (0, 2, 3, 4))
    assert (pentagon.chain_lengths, pentagon.maximal_chain) == brute_force_chains(edges, 0, 4)
    assert pentagon.length == pentagon.above(0).length == 3


_ZOO = ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16", "idealization", "crt-Z12"]


def _assert_covers_match_the_oracles(lat, masks, brute_force_hasse, brute_force_chains):
    """The Hasse edges of a poset are poset_structure's and the brute-force
    oracle's, and the chains its one pass counts over them are the
    brute-force oracle's."""
    assert lat.hasse_edges == lt.poset_structure(masks)
    assert list(lat.hasse_edges) == brute_force_hasse(masks)
    assert (lat.chain_lengths, lat.maximal_chain) == brute_force_chains(lat.hasse_edges, 0, lat.count - 1)


@pytest.mark.parametrize("name", _ZOO)
def test_lattice_poset_matches_oracle(extension_zoo, name, brute_force_hasse, brute_force_chains):
    rep = lt.intermediate_algebras(extension_zoo(name))
    _assert_covers_match_the_oracles(rep, [n.mask for n in rep.nodes], brute_force_hasse,
                                     brute_force_chains)
    assert rep.length == max(rep.chain_lengths) == len(rep.maximal_chain) - 1


def test_readers_that_need_no_chains_leave_the_chain_pass_unrun(monkeypatch, capsys):
    # the chain pass is a cached property: it runs on the first read of
    # chain_lengths, maximal_chain or length, and only then
    minimal = lt.intermediate_algebras(lt.power_extension(rg.make_gf(2), 2))
    wide = lt.intermediate_algebras(lt.power_extension(rg.make_gf(2), 3))
    for rep in (minimal, wide):
        lt.predicate_battery(rep)
    assert lt.classify_minimal(minimal).kind == "decomposed"
    bij = md.idealization_lattice_bijection(md.submodules(md.module_from_ring(rg.make_zmod(4))))
    assert bij.ok
    for rep in (minimal, wide, bij.report):
        assert not {"_chains", "chain_lengths", "maximal_chain"} & set(vars(rep))
    assert wide.length == 2 and "_chains" in vars(wide)
    # nor does the classify command run it
    monkeypatch.setattr(lt.Poset, "_chains", property(lambda self: pytest.fail("chain pass ran")))
    assert cli.main(["classify", "Z/2", "Z/2 x Z/2"]) == 0
    assert cli.main(["classify", "Z/2", "Z/2 x Z/2 x Z/2"]) == 0
    capsys.readouterr()


# The five lattice-large benchmark tops, (Z/2)^7, two one-node lattices (the
# second is the lattice of `classify Z/2 Z/2`), one whose maximal chains have
# lengths 2 and 3, and Z/4 < Z/4[t]/(t^4), where a level chunk holds 128 join
# rows, so that one node's joins span chunks.
_COVER_CASES = {
    "(Z/2)^6": ("Z/2", " x ".join(["Z/2"] * 6)),
    "GF(2^2)^3": ("GF(2^2)", "GF(2^2) x GF(2^2) x GF(2^2)"),
    "(Z/16)^2": ("Z/16", "Z/16 x Z/16"),
    "GF(2^8)": ("Z/2", "GF(2^8)"),
    "Z/2[t]/(t^6)": ("Z/2", "Z/2[t]/(t^6)"),
    "(Z/2)^7": ("Z/2", " x ".join(["Z/2"] * 7)),
    "GF(2^1)": ("Z/2", "GF(2^1)"),
    "Z/2": ("Z/2", "Z/2"),
    "GF(2^2)^2": ("Z/2", "GF(2^2) x GF(2^2)"),
    "Z/4[t]/(t^4)": ("Z/4", "Z/4[t]/(t^4)"),
}


@pytest.mark.parametrize("entries", [None, 1], ids=["default", "one-entry-chunks"])
@pytest.mark.parametrize("name", list(_COVER_CASES))
def test_covers_of_the_closure_match_the_oracles(name, entries, monkeypatch, brute_force_hasse,
                                                 brute_force_chains):
    # with one mask entry per chunk, each join row and each cover test is a
    # kernel call of its own, so the joins of one node span many chunks
    if entries:
        monkeypatch.setattr(rg, "_LEVEL_ENTRIES", entries)
    rep = lt.intermediate_algebras(cli.resolve_extension(*_COVER_CASES[name], None))
    _assert_covers_match_the_oracles(rep, [n.mask for n in rep.nodes], brute_force_hasse,
                                     brute_force_chains)
    if name in ("GF(2^1)", "Z/2"):
        assert (rep.count, rep.hasse_edges, rep.chain_lengths, rep.maximal_chain) == (1, (), {0: 1}, (0,))
    if name == "GF(2^2)^2":
        assert rep.chain_lengths == {2: 2, 3: 2}


@pytest.mark.parametrize("build", [
    lambda: rg.product([rg.make_zmod(16)] * 2).ring,
    lambda: rg.product([rg.make_gf(2)] * 5).ring,
], ids=["Z16xZ16", "F2^5"])
def test_ideal_poset_matches_oracle(build, brute_force_hasse, brute_force_chains):
    masks = [i.mask for i in all_ideals(build())]
    _assert_covers_match_the_oracles(lt.Poset(tuple(masks), lt.poset_structure(masks)), masks,
                                     brute_force_hasse, brute_force_chains)


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
    assert _is_base(rep.nodes[0]) and _is_top(rep.nodes[-1])
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
    ring, with the base-submodules enumerated directly in the top."""
    top = ext.top
    subs = rg.enumerate_submodules(top.add, top.mul[ext.embed.map], top.zero)
    for sm in subs:
        if not sm[ext.embed.map].all():
            continue
        idx = np.flatnonzero(sm)
        if not sm[top.mul[np.ix_(idx, idx)]].all():
            return False
    return True


def _span(top, img, coeffs, t):
    """The elements of R + Jt, for R and J given by their top indices img and
    coeffs, gathered as all of R x Jt."""
    n = top.order
    return rg.distinct(top.add[np.ix_(img, rg.distinct(top.mul[coeffs, t], n))], n)


def _quadratic_by_spans(ext):
    """Reference: for every t of the top, one at a time, every product of two
    elements of R + Rt lies in R + Rt."""
    top = ext.top
    img = np.asarray(ext.image, dtype=np.intp)
    for t in range(top.order):
        span = _span(top, img, img, t)
        smask = np.zeros(top.order, dtype=bool)
        smask[span] = True
        if not smask[top.mul[np.ix_(span, span)]].all():
            return False
    return True


def _gilbert_by_search(report):
    """Reference: the least t of the top with R + Rt = S, by a loop over the
    top, and each ideal J of R containing the conductor with the node
    R + Jt."""
    ext = report.extension
    top = ext.top
    img = np.asarray(ext.image, dtype=np.intp)
    t_found = next((t for t in range(top.order) if len(_span(top, img, img, t)) == top.order), None)
    if t_found is None:
        raise NotApplicableError("extension is not of the form R + Rt")
    cond = conductor(ext)
    pairs = []
    seen = set()
    for j in all_ideals(ext.base):
        if not contains(j, cond):
            continue
        j_top = ext.embed.map[np.asarray(j.elements, dtype=np.intp)]
        idx = report.node_index(_span(top, img, j_top, t_found))
        if idx is None:
            raise InternalCheckError("R + Jt is not a lattice node")
        if idx in seen:
            raise InternalCheckError("ideal correspondence is not injective")
        seen.add(idx)
        pairs.append((j, idx))
    if len(pairs) != report.count:
        raise InternalCheckError("ideal correspondence is not onto the lattice")
    return lt.GilbertReport(t_found, tuple(pairs))


def _gilbert_outcome(gilbert, report):
    """(t, pairs as (ideal elements, node)) of a Gilbert bijection, or the
    type and message of the error it raises."""
    try:
        gb = gilbert(report)
    except RinglatError as e:
        return type(e).__name__, str(e)
    return gb.t, tuple((j.elements, i) for j, i in gb.pairs)


def _span_answers(report):
    """The answers of the span-stack readers on the extension of report,
    after asserting that each equals its reference."""
    ext = report.extension
    quadratic, delta0 = lt.is_quadratic(ext), lt.is_delta0(ext)
    gilbert = _gilbert_outcome(lt.gilbert_bijection, report)
    assert quadratic is _quadratic_by_spans(ext)
    assert delta0 is _delta0_by_enumeration(ext)
    assert gilbert == _gilbert_outcome(_gilbert_by_search, report)
    return quadratic, delta0, isinstance(gilbert[0], int)


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
    rep = lt.intermediate_algebras(ext)
    assert _span_answers(rep)[:2] == (quadratic, delta0)
    battery = lt.predicate_battery(rep)
    assert (battery["quadratic"], battery["delta0"]) == (quadratic, delta0)
    # the coset step whose least elements index the rows of the span stack
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


# (base, top) pairs on which the adjunction kernel is checked node by node
_ADJOIN_CASES = [
    ("Z/2", "Z/2 x Z/2 x Z/2 x Z/2"), ("Z/2", "GF(2^4)"), ("Z/2", "Z/2[t]/(t^4)"),
    ("Z/4", "Z/4[t]/(t^2)"), ("Z/9", "Z/9[t]/(t^2)"), ("Z/4", "idealize(Z/4, (2) + (2))"),
    ("Z/4", "Z/4 x Z/2[t]/(t^2)"),
]


@pytest.mark.parametrize("base, top", _ADJOIN_CASES)
def test_adjoin_matches_the_pair_closure(base, top):
    from ringlat.cli import resolve_extension

    ext = resolve_extension(base, top, None)
    ring = ext.top
    for node in lt.intermediate_algebras(ext).nodes:
        for s in np.flatnonzero(~node.mask):
            want = rg.extend_closure_mask(ring.order, node.mask, [s], (ring.add, ring.mul))
            assert rg.mask_elements(rg.adjoin_all(ring, node.mask, [s])) == rg.mask_elements(want)


@pytest.mark.parametrize("base, top", _ADJOIN_CASES)
def test_lattice_is_invariant_under_relabeling(base, top):
    from ringlat.cli import resolve_extension

    ext = resolve_extension(base, top, None)
    perm = np.random.default_rng(ext.top.order).permutation(ext.top.order)
    rep, moved = lt.intermediate_algebras(ext), lt.intermediate_algebras(_relabel(ext, perm))
    to_new = [moved.node_index(sorted(perm[list(n.elements)])) for n in rep.nodes]
    assert sorted(to_new) == list(range(moved.count))
    assert moved.chain_lengths == rep.chain_lengths
    assert sorted((to_new[a], to_new[b]) for a, b in rep.hasse_edges) == sorted(moved.hasse_edges)


def _pairwise_delta(rep):
    """is_delta by its definition: the pair closure under + of every two
    nodes is a node."""
    top = rep.extension.top
    nodes = {n.elements for n in rep.nodes}
    return all(rg.mask_elements(rg.closure_mask(top.order, [*a.elements, *b.elements], (top.add,))) in nodes
               for a, b in itertools.combinations(rep.nodes, 2))


def _pairwise_pointwise_minimal(rep):
    """is_pointwise_minimal by its definition: R[t], by the pair closure, is
    an upper cover of R for every t outside R."""
    top = rep.extension.top
    base = rep.nodes[0].mask
    covers = {rep.nodes[b].elements for a, b in rep.hasse_edges if a == 0}
    return all(rg.mask_elements(rg.extend_closure_mask(top.order, base, [t], (top.add, top.mul))) in covers
               for t in range(top.order) if not base[t])


_PREDICATE_CORPUS = [*_ZOO, *(f"{base} < {top}" for base, top in _ADJOIN_CASES), "Z/4 = Z/4"]


@pytest.fixture(scope="module")
def predicate_lattices(extension_zoo):
    """Each extension of the corpus by name, built once, with its lattice and
    those of a relabeled copy."""
    from ringlat.cli import resolve_extension

    def build(name):
        if name in _ZOO:
            ext = extension_zoo(name)
        elif " = " in name:
            ext = lt.Extension(rg.identity_hom(rg.make_zmod(4)))
        else:
            ext = resolve_extension(*name.split(" < "), None)
        perm = np.random.default_rng(ext.top.order).permutation(ext.top.order).astype(np.int32)
        return lt.intermediate_algebras(ext), lt.intermediate_algebras(_relabel(ext, perm))

    return {name: build(name) for name in _PREDICATE_CORPUS}


@pytest.mark.parametrize("name", _PREDICATE_CORPUS)
def test_sum_and_cover_predicates_match_their_pairwise_definitions(predicate_lattices, name, monkeypatch):
    # is_delta sums each node with the later ones in batched calls, in one
    # call or one row a call; is_pointwise_minimal reads the upper covers of
    # node 0; both must agree with the pair closure on a relabeled copy too
    reps = predicate_lattices[name]
    want = [(_pairwise_delta(rep), _pairwise_pointwise_minimal(rep)) for rep in reps]
    kernel, rows = lt._add_cosets_rows, []

    def counted(add, a, x):
        rows.append(len(a))
        return kernel(add, a, x)

    monkeypatch.setattr(lt, "_add_cosets_rows", counted)
    for entries in (None, 1):
        if entries is not None:
            monkeypatch.setattr(lt, "_LEVEL_ENTRIES", entries)
        for rep, (delta, pointwise) in zip(reps, want):
            rows.clear()
            assert (lt.is_delta(rep), lt.is_pointwise_minimal(rep)) == (delta, pointwise)
            # a lattice that is Delta has every pair summed, once
            assert not delta or sum(rows) == rep.count * (rep.count - 1) // 2


def _tclosed_all_pairs(top, mask):
    """The b outside T with some r in T such that b^2 - rb and b^3 - rb^2
    lie in T, every pair (r, b) of T x (S minus T) gathered at once: the
    reference for the blocked test of lt.tclosed_candidates."""
    inside = np.flatnonzero(mask)
    outside = np.flatnonzero(~mask)
    sq = top.mul.diagonal()[outside]
    cube = top.mul[sq, outside]
    c1 = mask[top.add[sq, top.neg[top.mul[np.ix_(inside, outside)]]]]
    c2 = mask[top.add[cube, top.neg[top.mul[np.ix_(inside, sq)]]]]
    return outside[(c1 & c2).any(axis=0)]


@pytest.mark.parametrize("name", _PREDICATE_CORPUS)
def test_tclosed_candidates_match_the_all_pairs_test(predicate_lattices, name, monkeypatch):
    # every node of each lattice and of its relabeled copy as T: in one
    # block, and in blocks of one r, or of a few entries, so that a b that
    # passes leaves while the others meet every r
    reps = predicate_lattices[name]
    want = [[_tclosed_all_pairs(rep.extension.top, node.mask) for node in rep.nodes] for rep in reps]
    for entries in (None, 1, 7):
        if entries is not None:
            monkeypatch.setattr(lt, "_GATHER_ENTRIES", entries)
        for rep, expected in zip(reps, want):
            for node, b in zip(rep.nodes, expected):
                got = lt.tclosed_candidates(rep.extension.top, node.mask)
                assert got.tolist() == b.tolist()


def test_the_tclosed_corpus_admits_some_and_not_others(predicate_lattices):
    sizes = {lt.tclosed_candidates(rep.extension.top, node.mask).size > 0
             for rep, _ in predicate_lattices.values() for node in rep.nodes if not _is_top(node)}
    assert sizes == {True, False}


@pytest.mark.parametrize("name", _ZOO)
def test_tclosed_candidates_carry_over_under_relabeling(extension_zoo, name, monkeypatch):
    ext = extension_zoo(name)
    perm = np.random.default_rng(ext.top.order + 1).permutation(ext.top.order)
    moved = _relabel(ext, perm)
    for entries in (None, 5):
        if entries is not None:
            monkeypatch.setattr(lt, "_GATHER_ENTRIES", entries)
        for node in lt.intermediate_algebras(ext).nodes:
            moved_mask = np.zeros(ext.top.order, dtype=bool)
            moved_mask[perm[node.mask]] = True
            got = lt.tclosed_candidates(moved.top, moved_mask)
            assert sorted(perm[lt.tclosed_candidates(ext.top, node.mask)].tolist()) == got.tolist()


def test_tclosed_candidates_of_the_largest_closures_query(monkeypatch):
    # t_closure(Z/2 in Z/2[t]/(t^8)) tests a T of order 128 against 128 b,
    # 16,384 pairs in one block of _GATHER_ENTRIES: the largest closures
    # query the benchmark runs
    from ringlat.cli import resolve_extension

    seen = []

    def checked(top, mask):
        got = lt.tclosed_candidates(top, mask)
        assert got.tolist() == _tclosed_all_pairs(top, mask).tolist()
        seen.append(int(mask.sum()) * int((~mask).sum()))
        return got

    monkeypatch.setattr(cl, "tclosed_candidates", checked)
    cl.t_closure(resolve_extension("Z/2", "Z/2[t]/(t^8)", None))
    assert max(seen) == 128 * 128 <= lt._GATHER_ENTRIES


def test_the_predicate_corpus_takes_both_values(predicate_lattices):
    answers = [(lt.is_delta(rep), lt.is_pointwise_minimal(rep)) for rep, _ in predicate_lattices.values()]
    assert {d for d, _ in answers} == {True, False} and {p for _, p in answers} == {True, False}
    assert predicate_lattices["Z/4 = Z/4"][0].count == 1


@pytest.mark.parametrize("name", _PREDICATE_CORPUS)
def test_span_stack_readers_match_their_references(predicate_lattices, name, monkeypatch):
    # the zoo and the adjunction cases, each with a relabeled copy; Delta0
    # again with one row a kernel call
    reps = predicate_lattices[name]
    answers = [_span_answers(rep) for rep in reps]
    monkeypatch.setattr(lt, "_LEVEL_ENTRIES", 1)
    assert [lt.is_delta0(rep.extension) for rep in reps] == [delta0 for _, delta0, _ in answers]


_VERIFY_CORPORA = {
    "trichotomy": lambda: [rep for _, rep in vf._trichotomy_corpus()],
    "random": lambda: [rep for _, _, rep in vf._random_lattices()],
    "spir": lambda: [rep for _, rep, _ in vf._spir_lattices()],
}


@pytest.mark.parametrize("corpus", sorted(_VERIFY_CORPORA))
def test_span_stack_readers_match_their_references_on_the_verify_corpora(corpus):
    for rep in _VERIFY_CORPORA[corpus]():
        _span_answers(rep)


@pytest.mark.parametrize("corpus", sorted(_VERIFY_CORPORA))
def test_covers_match_the_oracles_on_the_verify_corpora(corpus, brute_force_hasse, brute_force_chains):
    for rep in _VERIFY_CORPORA[corpus]():
        _assert_covers_match_the_oracles(rep, [n.mask for n in rep.nodes], brute_force_hasse,
                                         brute_force_chains)


def test_covers_match_the_oracles_on_the_idealization_corpus(brute_force_hasse, brute_force_chains):
    # both lattices of each pair: the submodules of M, and [R, R(+)M]
    for _, bij in vf._idealizations():
        sub = bij.lattice
        _assert_covers_match_the_oracles(sub, [np.isin(np.arange(sub.module.order), n) for n in sub.nodes],
                                         brute_force_hasse, brute_force_chains)
        _assert_covers_match_the_oracles(bij.report, [n.mask for n in bij.report.nodes],
                                         brute_force_hasse, brute_force_chains)
    assert vf.check_hasse_edges().passed


def test_the_span_corpus_takes_both_values(predicate_lattices):
    reports = [rep for pair in predicate_lattices.values() for rep in pair]
    reports += [rep for corpus in _VERIFY_CORPORA.values() for rep in corpus()]
    answers = [(lt.is_quadratic(rep.extension), lt.is_delta0(rep.extension),
                isinstance(_gilbert_outcome(lt.gilbert_bijection, rep)[0], int)) for rep in reports]
    assert [set(a) for a in zip(*answers)] == [{True, False}] * 3


def test_the_battery_reads_delta0_as_quadratic_and_delta(predicate_lattices, monkeypatch):
    # Delta0 iff quadratic and Delta, so the battery reads it off the two
    # answers it already holds and never calls is_delta0
    reports = [rep for pair in predicate_lattices.values() for rep in pair]
    want = [lt.is_delta0(rep.extension) for rep in reports]

    def refuse(ext):
        raise AssertionError("the battery called is_delta0")

    monkeypatch.setattr(lt, "is_delta0", refuse)
    assert [lt.predicate_battery(rep)["delta0"] for rep in reports] == want
    assert set(want) == {True, False}


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
