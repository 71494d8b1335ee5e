import numpy as np
import pytest

from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import (InternalCheckError, NotApplicableError,
                            PreconditionError)


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


def test_jordan_holder_check_fails_when_chain_lengths_differ(z4):
    # the pentagon N5 is no submodule lattice; its maximal chains have lengths 2 and 3
    sets = ((), (0,), (1,), (1, 2), (0, 1, 2))
    lat = md.SubmoduleLattice(sets, *lt.poset_structure([np.isin(np.arange(3), s) for s in sets]),
                              md.module_from_ring(z4))
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


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_idealization_lattice_has_the_submodule_chains(name):
    mod = _MODULES[name]()
    lat = md.submodules(mod)
    rep = lt.intermediate_algebras(md.idealization_extension(mod)[0])
    pairs = dict(md.idealization_lattice_bijection(lat).pairs)
    assert {(pairs[a], pairs[b]) for a, b in lat.hasse_edges} == set(rep.hasse_edges)
    assert (lat.count, lat.chain_lengths) == (rep.count, rep.chain_lengths)


def test_faithful(z4):
    assert md.is_faithful(md.module_from_ring(z4))
    assert not md.is_faithful(md.module_from_cyclics(z4, [[2]]))


def test_quotient_module(z8):
    mod = md.module_from_ring(z8)
    sub = md.submodule_closure(mod, [4])
    out = md.quotient_module(mod, sub)
    assert out.module.order == 4
    md.check_module(out.module)


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
    sub = md.submodule_closure(mod, seed)
    classes = brute_force_cosets(mod.add, sub)
    q = md.quotient_module(mod, sub)
    assert q.module.order == len(classes)
    assert [set(np.flatnonzero(q.projection == k).tolist()) for k in range(len(classes))] \
        == [set(c) for c in classes]
    reps = [min(c) for c in classes]
    assert q.module.add.tolist() == [[int(q.projection[mod.add[a, b]]) for b in reps] for a in reps]
    md.check_module(q.module)


def test_idealization_of_free_line(f2, f2_eps):
    idl = md.idealize(md.module_from_ring(f2))
    assert idl.ring.order == 4
    assert rg.is_isomorphic(idl.ring, f2_eps) is not None


def test_idealization_of_zero_module(z4):
    idl = md.idealize(md.module_from_cyclics(z4, []))
    assert rg.is_isomorphic(idl.ring, z4) is not None


def test_idealization_product_rule(z4):
    mod = md.module_from_ring(z4)
    idl = md.idealize(mod)
    r1, m1 = 3, 2
    r2, m2 = 2, 1
    lhs = idl.ring.mul[idl.pair_index(r1, m1), idl.pair_index(r2, m2)]
    rs = int(z4.mul[r1, r2])
    cross = int(mod.add[mod.action[r1, m2], mod.action[r2, m1]])
    assert int(lhs) == idl.pair_index(rs, cross)


def test_idealization_conductor_is_annihilator(z4):
    from ringlat.ideals import annihilator, conductor

    mod = md.module_from_cyclics(z4, [[2]])
    ext, _ = md.idealization_extension(mod)
    assert conductor(ext) == annihilator(mod)


def test_lattice_bijection_node_for_node(f2):
    mod = md.module_from_cyclics(f2, [[0], [0]])
    bij = md.idealization_lattice_bijection(md.submodules(mod))
    assert bij.ok
    assert bij.nu == 5
    assert bij.lattice_count == 5
    assert len(bij.pairs) == 5


def test_interval_matches_quotient(z8):
    mod = md.module_from_ring(z8)
    sub = md.submodule_closure(mod, [4])
    iv = md.interval_length(mod, sub)
    assert iv.ok
    assert iv.interval_length == iv.quotient_length == 2
    assert iv.interval_count == iv.quotient_count


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
    assert res.lattice_checked


def test_submodule_lattice_serialization(z4):
    lat = md.submodules(md.module_from_ring(z4))
    data = lat.to_json()
    assert data["schema"] == 1
    assert data["count"] == 3
