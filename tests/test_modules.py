import itertools

import numpy as np
import pytest

from ringlat import ideals as il
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat import verify as vf
from ringlat.errors import (InternalCheckError, NotApplicableError,
                            PreconditionError, SizeLimitError)


def test_module_from_ring_passes_check(z8):
    mod = md.module_from_ring(z8)
    md.check_module(mod)
    assert mod.order == 8


def test_corrupted_action_fails_check(z4):
    mod = md.module_from_ring(z4)
    action = np.array(mod.action, copy=True)
    action[3, 1] = 0  # 3*1 must be 3
    broken = md.FiniteModule(z4, mod.order, np.array(mod.add, copy=True),
                             mod.zero, action, "broken")
    with pytest.raises(InternalCheckError):
        md.check_module(broken)


def test_cyclic_sum_construction(z4):
    mod = md.module_from_cyclics(z4, [[0], [2]])
    assert mod.order == 8
    md.check_module(mod)
    trivial = md.module_from_cyclics(z4, [])
    assert trivial.order == 1
    dropped = md.module_from_cyclics(z4, [[1], [0]])  # the unit summand vanishes
    assert dropped.order == 4


def test_cyclic_sums_build_each_quotient_once(z4, monkeypatch):
    built = []
    orig = md.quotient
    monkeypatch.setattr(md, "quotient", lambda ring, ideal: built.append(ideal) or orig(ring, ideal))
    mod = md.module_from_cyclics(z4, [[0], [2], [0], [2], [1]])
    assert len(built) == 2
    assert mod.order == 4 * 2 * 4 * 2
    md.check_module(mod)


@pytest.mark.parametrize("build,count,length", [
    (lambda: md.module_from_ring(rg.make_gf(2)), 2, 1),
    (lambda: md.module_from_cyclics(rg.make_gf(2), [[0], [0]]), 5, 2),
    (lambda: md.module_from_cyclics(rg.make_gf(2), [[0], [0], [0]]), 16, 3),
    (lambda: md.module_from_cyclics(rg.make_gf(3), [[0], [0]]), 6, 2),
    (lambda: md.module_from_ring(rg.make_zmod(4)), 3, 2),
    (lambda: md.module_from_ring(rg.make_zmod(8)), 4, 3),
    (lambda: md.module_from_ring(rg.make_zmod(6)), 4, 2),
])
def test_submodule_counts_and_lengths(build, count, length, brute_force_hasse, brute_force_chains):
    mod = build()
    lat = md.submodules(mod)
    assert lat.count == count
    assert lat.length == length
    assert md.module_length(mod) == length
    assert md.jordan_holder_check(lat)
    assert list(lat.hasse_edges) == brute_force_hasse([np.isin(np.arange(mod.order), n) for n in lat.nodes])
    lengths, witness = brute_force_chains(lat.hasse_edges, 0, lat.count - 1)
    assert lengths == {length: sum(lengths.values())}
    assert (lat.chain_lengths, lat.maximal_chain) == (lengths, witness)


def test_submodule_bottom_and_top_are_first_and_last(z4):
    # Z/4 over itself with each element x renamed 3 - x, so zero is element 3
    perm = np.array([3, 2, 1, 0])
    inv = np.argsort(perm)
    mod = md.module_from_ring(z4)
    moved = md.FiniteModule(z4, 4, perm[mod.add[np.ix_(inv, inv)]], int(perm[mod.zero]),
                            perm[mod.action[:, inv]], "moved")
    md.check_module(moved)
    lat = md.submodules(moved)
    assert lat.nodes == ((3,), (1, 3), (0, 1, 2, 3))
    assert lat.hasse_edges == ((0, 1), (1, 2))
    assert (lat.chain_lengths, lat.maximal_chain) == ({2: 1}, (0, 1, 2))


@pytest.mark.parametrize("build, length, chains", [
    # the Boolean lattice B_8: 8! chains of subsets
    (lambda: md.module_from_ring(rg.product([rg.make_gf(2)] * 8).ring), 8, 40320),
    # complete flags of GF(q)^n: prod (q^i - 1)/(q - 1) for i = 1..n
    (lambda: md.module_from_cyclics(rg.make_gf(2), [[0]] * 5), 5, 9765),
    (lambda: md.module_from_cyclics(rg.make_gf(3), [[0]] * 3), 3, 52),
], ids=["B8", "GF2^5", "GF3^3"])
def test_maximal_chains_are_counted_exactly(build, length, chains):
    lat = md.submodules(build())
    assert md.jordan_holder_check(lat)
    assert lat.chain_lengths == {length: chains}


def test_jordan_holder_check_fails_when_chain_lengths_differ(z4, brute_force_hasse, brute_force_chains):
    # the pentagon N5 is no submodule lattice; its maximal chains have lengths 2 and 3
    sets = ((), (0,), (1,), (1, 2), (0, 1, 2))
    masks = [np.isin(np.arange(3), s) for s in sets]
    lat = md.SubmoduleLattice(sets, lt.poset_structure(masks), md.module_from_ring(z4))
    assert list(lat.hasse_edges) == brute_force_hasse(masks)
    assert lat.chain_lengths == brute_force_chains(lat.hasse_edges, 0, 4)[0] == {2: 1, 3: 1}
    assert not md.jordan_holder_check(lat)


def test_cyclic_and_uniserial(z8, f2):
    assert md.is_cyclic(md.module_from_ring(z8)) is not None
    assert md.is_uniserial(md.submodules(md.module_from_ring(z8)))
    plane = md.module_from_cyclics(f2, [[0], [0]])
    assert md.is_cyclic(plane) is None
    assert not md.is_uniserial(md.submodules(plane))


_MODULES = {
    "Z8": lambda: md.module_from_ring(rg.make_zmod(8)),
    "Z6": lambda: md.module_from_ring(rg.make_zmod(6)),
    "Z9/(3)+Z9": lambda: md.module_from_cyclics(rg.make_zmod(9), [[3], [0]]),
    "F2[t]/(t^3)": lambda: md.module_from_ring(rg.poly_quotient(rg.make_gf(2), [0, 0, 0, 1]).ring),
    "F2+F2": lambda: md.module_from_cyclics(rg.make_gf(2), [[0], [0]]),
    "zero": lambda: md.module_from_cyclics(rg.make_gf(2), []),
}


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_uniserial_means_every_two_submodules_compare(name):
    lat = md.submodules(_MODULES[name]())
    sets = [set(n) for n in lat.nodes]
    assert md.is_uniserial(lat) is all(a <= b or b <= a for a in sets for b in sets)


@pytest.mark.parametrize("entries", [None, 1], ids=["default", "one-entry-chunks"])
@pytest.mark.parametrize("name", sorted(_MODULES))
def test_submodule_covers_match_the_oracles(name, entries, monkeypatch, brute_force_hasse,
                                            brute_force_chains):
    if entries:
        monkeypatch.setattr(rg, "_LEVEL_ENTRIES", entries)
    mod = _MODULES[name]()
    lat = md.submodules(mod)
    masks = [np.isin(np.arange(mod.order), n) for n in lat.nodes]
    assert lat.hasse_edges == lt.poset_structure(masks)
    assert list(lat.hasse_edges) == brute_force_hasse(masks)
    assert (lat.chain_lengths, lat.maximal_chain) == brute_force_chains(lat.hasse_edges, 0, lat.count - 1)


@pytest.mark.parametrize("entries", [None, 1], ids=["default", "one-entry-chunks"])
@pytest.mark.parametrize("build", [
    lambda: rg.product([rg.make_zmod(8), rg.make_zmod(4)]).ring,
    lambda: rg.product([rg.make_gf(2)] * 4).ring,
    lambda: rg.poly_quotient(rg.make_zmod(4), [0, 0, 0, 1], var="t").ring,
], ids=["Z8xZ4", "F2^4", "Z4[t]/(t^3)"])
def test_covers_over_a_bottom_match_the_oracles(build, entries, monkeypatch, brute_force_hasse,
                                                brute_force_chains):
    # the ideals over each ideal I (the bottom= path), a lattice of its own
    if entries:
        monkeypatch.setattr(rg, "_LEVEL_ENTRIES", entries)
    ring = build()
    for ideal in il.all_ideals(ring):
        closed = rg.enumerate_submodules(ring.add, ring.mul, ring.zero, ideal.mask)
        masks = list(closed)
        assert masks[0].tobytes() == ideal.mask.tobytes()
        poset = lt.Poset(tuple(masks), closed.hasse_edges)
        assert poset.hasse_edges == lt.poset_structure(masks)
        assert list(poset.hasse_edges) == brute_force_hasse(masks)
        assert (poset.chain_lengths, poset.maximal_chain) == brute_force_chains(poset.hasse_edges, 0,
                                                                                 poset.count - 1)


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_idealization_lattice_has_the_submodule_chains(name):
    mod = _MODULES[name]()
    lat = md.submodules(mod)
    bij = md.idealization_lattice_bijection(lat)
    rep, pairs = bij.report, dict(bij.pairs)
    assert rep.extension.top.order == mod.ring.order * mod.order
    assert {(pairs[a], pairs[b]) for a, b in lat.hasse_edges} == set(rep.hasse_edges)
    assert (lat.count, lat.chain_lengths) == (rep.count, rep.chain_lengths)


def test_faithful(z4):
    assert md.is_faithful(md.module_from_ring(z4))
    assert not md.is_faithful(md.module_from_cyclics(z4, [[2]]))


def _submodule_closure(m, seed):
    """Smallest submodule containing the seed: the sum of the orbits Rg."""
    return rg.mask_elements(rg.sum_of_orbits(m.add, m.action, m.zero, seed))


def test_quotient_module(z8):
    mod = md.module_from_ring(z8)
    sub = _submodule_closure(mod, [4])
    out = md.quotient_module(mod, sub)
    assert out.module.order == 4
    md.check_module(out.module)


@pytest.mark.parametrize("build", [
    lambda: md.module_from_ring(rg.make_zmod(4)),
    lambda: md.module_from_ring(rg.make_zmod(6)),
    lambda: md.module_from_ring(rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring),
    lambda: md.module_from_cyclics(rg.make_zmod(4), [[0], [2]]),
], ids=["Z/4", "Z/6", "F2[t]/(t^2)", "Z/4 + Z/2"])
def test_quotient_module_refuses_exactly_the_subsets_that_are_not_submodules(build, submodule_by_full_scan):
    # every subset holding zero: {0, 1} of Z/4 is no subgroup, and its
    # "quotient" would fail check_module; every accepted quotient is a module
    m = build()
    others = [x for x in range(m.order) if x != m.zero]
    refused = 0
    for k in range(len(others) + 1):
        for rest in itertools.combinations(others, k):
            sub = [m.zero, *rest]
            if submodule_by_full_scan(m, sub):
                md.check_module(md.quotient_module(m, sub).module)
            else:
                with pytest.raises(PreconditionError, match="subset is not a submodule"):
                    md.quotient_module(m, sub)
                refused += 1
    assert refused
    # no zero, an index past the module, a negative index
    for sub in ([x for x in range(m.order) if x != m.zero], [m.zero, m.order], [m.zero, -1]):
        with pytest.raises(PreconditionError, match="subset is not a submodule"):
            md.quotient_module(m, sub)


def _direct_sum_oracle(ring, gens):
    """The direct sum of the cyclic modules R/(g), built element by
    element over component tuples, first summand most significant."""
    from itertools import product as tuples

    from ringlat.ideals import ideal_generated

    qs = [rg.quotient(ring, ideal_generated(ring, g)) for g in gens
          if not ideal_generated(ring, g).is_whole]
    elems = list(tuples(*(range(q.ring.order) for q in qs)))
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple(int(q.ring.add[a, b]) for q, a, b in zip(qs, x, y))] for y in elems]
           for x in elems]
    action = [[index[tuple(int(q.ring.mul[q.projection.map[r], a]) for q, a in zip(qs, x))]
               for x in elems] for r in range(ring.order)]
    return add, action, index[tuple(q.ring.zero for q in qs)], "(+)".join(q.ring.label for q in qs)


@pytest.mark.parametrize("n, gens", [
    (4, [[2], [0]]),
    (12, [[4], [3], [3]]),
    (8, [[4], [0]]),
    (6, [[3], [2]]),
    (4, [[1], [2], [0]]),
])
def test_cyclic_sum_matches_componentwise_oracle(n, gens):
    ring = rg.make_zmod(n)
    mod = md.module_from_cyclics(ring, gens)
    add, action, zero, label = _direct_sum_oracle(ring, gens)
    assert mod.add.tolist() == add
    assert mod.action.tolist() == action
    assert (mod.zero, mod.label) == (zero, label)


@pytest.mark.parametrize("build, seed", [
    (lambda: md.module_from_ring(rg.make_zmod(8)), [4]),
    (lambda: md.module_from_cyclics(rg.make_zmod(4), [[2], [0]]), [1]),
    (lambda: md.module_from_cyclics(rg.make_zmod(12), [[4], [3], [3]]), [5]),
    (lambda: md.module_from_cyclics(rg.make_zmod(6), [[3], [2]]), [2]),
])
def test_quotient_module_matches_brute_force_cosets(build, seed, brute_force_cosets):
    mod = build()
    sub = _submodule_closure(mod, seed)
    classes = brute_force_cosets(mod.add, sub)
    q = md.quotient_module(mod, sub)
    assert q.module.order == len(classes)
    assert [set(np.flatnonzero(q.projection == k).tolist()) for k in range(len(classes))] \
        == [set(c) for c in classes]
    reps = [min(c) for c in classes]
    assert q.module.add.tolist() == [[int(q.projection[mod.add[a, b]]) for b in reps] for a in reps]
    md.check_module(q.module)


def test_idealization_of_free_line(f2, f2_eps, is_isomorphic):
    ext = md.idealize(md.module_from_ring(f2))
    assert ext.top.order == 4
    assert is_isomorphic(ext.top, f2_eps) is not None


def test_idealization_of_zero_module(z4, is_isomorphic):
    ext = md.idealize(md.module_from_cyclics(z4, []))
    assert is_isomorphic(ext.top, z4) is not None


def test_idealization_product_rule(z4):
    mod = md.module_from_ring(z4)
    ext = md.idealize(mod)

    def pair(r, x):  # R(+)M is laid out as the product R x M
        return int(rg.product_index((z4.order, mod.order), (r, x)))

    r1, m1 = 3, 2
    r2, m2 = 2, 1
    lhs = ext.top.mul[pair(r1, m1), pair(r2, m2)]
    rs = int(z4.mul[r1, r2])
    cross = int(mod.add[mod.action[r1, m2], mod.action[r2, m1]])
    assert int(lhs) == pair(rs, cross)
    assert ext.embed.map.tolist() == [pair(r, mod.zero) for r in range(z4.order)]


def test_idealization_conductor_is_annihilator(z4):
    from ringlat.ideals import annihilator, conductor

    mod = md.module_from_cyclics(z4, [[2]])
    assert conductor(md.idealize(mod)) == annihilator(mod)


def test_lattice_bijection_node_for_node(f2):
    mod = md.module_from_cyclics(f2, [[0], [0]])
    bij = md.idealization_lattice_bijection(md.submodules(mod))
    assert bij.ok
    assert bij.nu == 5
    assert bij.lattice_count == 5
    assert len(bij.pairs) == 5


def test_interval_matches_quotient(z8):
    mod = md.module_from_ring(z8)
    sub = _submodule_closure(mod, [4])
    bij = md.idealization_lattice_bijection(md.submodules(mod))
    iv = md.interval_length(bij, bij.lattice.nodes.index(sub))
    assert iv.ok
    assert iv.interval_length == iv.quotient_length == 2
    assert iv.interval_count == iv.quotient_count
    with pytest.raises(PreconditionError, match="submodule 4"):
        md.interval_length(bij, bij.nu)


@pytest.mark.parametrize("k", range(17))
def test_interval_read_off_the_report_matches_a_second_enumeration(k):
    # the up-set of R(+)N in bij.report is the lattice [R(+)N, R(+)M] built
    # again from the node realized as a ring: the same nodes, so the same
    # count, and the same length
    label, bij = vf._idealizations()[k]
    for i, (_, node) in enumerate(bij.pairs):
        upper = bij.report.above(node)
        again = lt.intermediate_algebras(lt.upper_extension(bij.report.nodes[node]))
        assert [bij.report.nodes[j].elements for j in upper.nodes] == [n.elements for n in again.nodes]
        assert (upper.count, upper.length) == (again.count, again.length)
        iv = md.interval_length(bij, i)
        assert (iv.interval_count, iv.interval_length) == (again.count, again.length), label


def test_the_interval_corpus_has_72_cases():
    corpus = vf._idealizations()
    assert len(corpus) == 17
    assert sum(len(bij.pairs) for _, bij in corpus) == sum(bij.nu for _, bij in corpus) == 72


def test_intervals_of_a_chain(z8):
    # Z/8 over itself: 0 < (4) < (2) < Z/8, and [R, R(+)M] is a chain of 4
    bij = md.idealization_lattice_bijection(md.submodules(md.module_from_ring(z8)))
    assert [len(n) for n in bij.lattice.nodes] == [1, 2, 4, 8]
    for i in range(4):
        assert md.interval_length(bij, i) == md.IntervalReport(3 - i, 4 - i, 3 - i, 4 - i)
        assert bij.report.above(bij.pairs[i][1]) == lt.UpSet(tuple(range(bij.pairs[i][1], 4)), 3 - i)


def test_intervals_of_the_plane_over_f2(f2):
    # F2^2: 0, three lines, the plane; above a line sit the line and the plane
    bij = md.idealization_lattice_bijection(md.submodules(md.module_from_cyclics(f2, [[0], [0]])))
    assert bij.report.count == 5
    rows = [md.interval_length(bij, i) for i in range(5)]
    assert rows == [md.IntervalReport(2, 5, 2, 5)] + [md.IntervalReport(1, 2, 1, 2)] * 3 + [
        md.IntervalReport(0, 1, 0, 1)]
    assert [bij.report.above(i) for i in range(5)] == [
        lt.UpSet((0, 1, 2, 3, 4), 2), lt.UpSet((1, 4), 1), lt.UpSet((2, 4), 1), lt.UpSet((3, 4), 1),
        lt.UpSet((4,), 0)]


def _relabeled_module(m, perm):
    """The same module with each element x renamed perm[x]."""
    inv = np.argsort(perm)
    return md.FiniteModule(m.ring, m.order, perm[m.add[np.ix_(inv, inv)]], int(perm[m.zero]),
                           perm[m.action[:, inv]], m.label)


@pytest.mark.parametrize("k", range(17))
def test_interval_reports_are_invariant_under_relabeling(k):
    label, bij = vf._idealizations()[k]
    m = bij.lattice.module
    perm = np.random.default_rng(k).permutation(m.order)
    moved = _relabeled_module(m, perm)
    md.check_module(moved)
    bij2 = md.idealization_lattice_bijection(md.submodules(moved))
    assert bij2.ok
    for i, sub in enumerate(bij.lattice.nodes):
        j = bij2.lattice.nodes.index(tuple(sorted(int(perm[x]) for x in sub)))
        assert md.interval_length(bij2, j) == md.interval_length(bij, i), label


def _corpus_quotients():
    """(label, key, M/N) for the 72 intervals of the idealization corpus, each
    quotient with the key verify groups it by."""
    return [(label, *vf._keyed_quotient(bij.lattice.module, sub))
            for label, bij in vf._idealizations() for sub in bij.lattice.nodes]


def test_the_corpus_has_29_distinct_quotients():
    cases = _corpus_quotients()
    assert len(cases) == 72
    assert len({key for _, key, _ in cases}) == 29


def test_grouped_quotient_sides_match_the_scanned_path(scanned_module_length):
    # each distinct M/N is measured once; every quotient of its group has the
    # composition length of the per-element scan and its lattice's count and
    # length
    sides = {}
    for label, key, q in _corpus_quotients():
        side = sides.setdefault(key, md.length_and_count(q))
        lat = md.submodules(q)
        assert side == (scanned_module_length(q), lat.count) == (lat.length, lat.count), label


@pytest.mark.parametrize("k", range(17))
def test_orbit_sizes_match_the_per_element_scan(k, scanned_orbit_sizes, scanned_module_length):
    # on the module, a seeded relabeling of it and each quotient M/N: the same
    # orbit sizes, so the same first generator and the same first smallest
    # nonzero orbit
    label, bij = vf._idealizations()[k]
    m = bij.lattice.module
    moved = _relabeled_module(m, np.random.default_rng(k).permutation(m.order))
    for mod in [m, moved, *(md.quotient_module(m, sub).module for sub in bij.lattice.nodes)]:
        sizes = scanned_orbit_sizes(mod)
        assert md._orbit_sizes(mod).tolist() == sizes, label
        assert md.is_cyclic(mod) == next((x for x, n in enumerate(sizes) if n == mod.order), None), label
        assert md.module_length(mod) == scanned_module_length(mod), label


def test_length_and_count_keeps_the_lattice_bound(monkeypatch, z8):
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "4")
    with pytest.raises(SizeLimitError, match="submodule enumeration bound"):
        md.length_and_count(md.module_from_ring(z8))


def test_uniserial_structure_chain(z4):
    mod = md.module_from_cyclics(z4, [[2]])
    rep = md.uniserial_structure_check(mod)
    assert rep.passed
    assert rep.nu == 2
    assert rep.nu_of_quotient == 2


def test_uniserial_structure_preconditions(f2):
    plane = md.module_from_cyclics(f2, [[0], [0]])
    with pytest.raises(NotApplicableError):
        md.uniserial_structure_check(plane)
    z6 = rg.make_zmod(6)
    with pytest.raises(PreconditionError):
        md.uniserial_structure_check(md.module_from_ring(z6))


def test_componentwise_census(f3):
    res = md.componentwise_census(f3, 2)
    assert res.ok
    assert res.nu == 4
    assert res.lattice_count == 4
    big = md.componentwise_census(f3, 3)  # F3^3 (+) F3^3 has order 729
    assert big.ok and big.nu == 8 and big.lattice_count is None


def test_submodule_lattice_serialization(z4):
    lat = md.submodules(md.module_from_ring(z4))
    data = lat.to_json()
    assert data["schema"] == 1
    assert data["count"] == 3
