import inspect
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import crt as cr
from ringlat import dsl
from ringlat import ideals as il
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import InternalCheckError, PreconditionError


def test_all_ideals_of_z12(z12):
    ids = il.all_ideals(z12)
    assert sorted(i.order for i in ids) == [1, 2, 3, 4, 6, 12]


def test_ideal_arithmetic_on_z12(z12):
    i4 = il.principal_ideal(z12, 4)
    i6 = il.principal_ideal(z12, 6)
    assert il.ideal_sum(i4, i6) == il.principal_ideal(z12, 2)
    assert il.ideal_intersection(i4, i6).is_zero
    assert il.ideal_product(i4, i6).is_zero
    assert il.colon(il.zero_ideal(z12), il.principal_ideal(z12, 2)) == il.principal_ideal(z12, 6)
    assert il.ideal_power(il.principal_ideal(z12, 2), 2) == i4


@given(st.integers(min_value=2, max_value=48), st.integers(min_value=0, max_value=47),
       st.integers(min_value=0, max_value=47))
@settings(max_examples=40, deadline=None)
def test_principal_ideal_arithmetic_matches_gcd(n, a, b):
    ring = rg.make_zmod(n)
    a %= n
    b %= n
    ga = math.gcd(a, n)
    gb = math.gcd(b, n)
    ia, ib = il.principal_ideal(ring, a), il.principal_ideal(ring, b)
    assert ia.order == n // ga
    assert il.ideal_sum(ia, ib) == il.principal_ideal(ring, math.gcd(ga, gb) % n)
    assert il.ideal_intersection(ia, ib) == il.principal_ideal(ring, math.lcm(ga, gb) % n)
    assert il.ideal_product(ia, ib) == il.principal_ideal(ring, (ga * gb) % n)


def test_spectrum_of_z12(z12):
    spec = il.spectrum(z12)
    assert sorted(sorted(p.elements) for p in spec.primes) == [
        [0, 2, 4, 6, 8, 10], [0, 3, 6, 9]]
    assert sorted(spec.nilradical.elements) == [0, 6]
    assert all(rg.is_field(rg.quotient(z12, p).ring) for p in spec.primes)


def test_spectrum_of_field(f4):
    spec = il.spectrum(f4)
    assert len(spec.primes) == 1
    assert spec.primes[0].is_zero


def _spectrum_by_enumeration(ring):
    """Reference: test every proper ideal from all_ideals."""
    primes, maximals = [], []
    for ideal in il.all_ideals(ring):
        if ideal.is_whole:
            continue
        comp = np.flatnonzero(~ideal.mask)
        if not ideal.mask[ring.mul[np.ix_(comp, comp)]].any():
            primes.append(ideal)
        if rg.is_field(rg.quotient(ring, ideal).ring):
            maximals.append(ideal)
    jac = np.logical_and.reduce([m.mask for m in maximals])
    return tuple(primes), tuple(maximals), rg.Ideal(ring, rg.mask_elements(jac))


def _is_local_by_non_units(ring):
    """Reference: the non-units, when they are closed under addition."""
    nu = np.flatnonzero(~ring.units)
    if ring.units[ring.add[np.ix_(nu, nu)]].any():
        return None
    return rg.Ideal(ring, tuple(int(i) for i in nu))


def _is_spir_by_powers(ring):
    """Reference: the least t with Rt = M, and the least p with t^p = 0."""
    m = _is_local_by_non_units(ring)
    if m is None or rg.is_field(ring):
        return None
    for t in m.elements:
        if np.array_equal(np.isin(np.arange(ring.order), ring.mul[:, t]), m.mask):
            p, x = 1, t
            while x != ring.zero:
                x, p = int(ring.mul[x, t]), p + 1
            return rg.SpirWitness(t, p)
    return None


SPECTRUM_RINGS = [f"Z/{n}" for n in range(2, 65)] + [
    "Z/2 x Z/2", "Z/4 x Z/2", "Z/6 x Z/4", "GF(2^2) x Z/9", "Z/2 x Z/3 x Z/2",
    "Z/4 x Z/2 x Z/3", "Z/2[t]/(t^2) x GF(2^2)", "Z/3 x Z/2[t]/(t^2) x Z/2",
    "GF(2^3)", "GF(3^2)", "GF(2^4)", "GF(5^2)",
    "Z/2[t]/(t^3)", "Z/3[t]/(t^2)", "Z/2[t]/(t^2+t)", "Z/2[t]/(t^3+1)",
    "Z/4[t]/(t^2+1)", "(Z/2[t]/(t^2))[x]/(x^2-t, x*t)", "Z/2[t]/(t^2, t^5)",
    "idealize(Z/4, (2) + ())", "idealize(Z/6, (2))",
]


@pytest.mark.parametrize("text", SPECTRUM_RINGS)
def test_spectrum_matches_ideal_enumeration(text, local_decomposition):
    ring = dsl.build_text(text).ring
    spec = il.spectrum(ring)
    primes, maximals, jacobson = _spectrum_by_enumeration(ring)
    assert spec.primes == primes == maximals
    assert spec.nilradical == jacobson
    nil = np.logical_and.reduce([p.mask for p in primes])
    assert spec.nilradical == rg.Ideal(ring, rg.mask_elements(nil))
    # maximality is membership in the spectrum, and the ideal count of R/I
    # is the number of ideals of R over I (the correspondence theorem)
    for ideal in il.all_ideals(ring):
        if ideal.is_whole:
            assert ideal not in spec.primes and il.quotient_ideal_count(ideal) == 1
            continue
        q = rg.quotient(ring, ideal).ring
        assert (ideal in spec.primes) == rg.is_field(q)
        assert il.quotient_ideal_count(ideal) == len(il.all_ideals(q))
    # locality, the factor count and the SPIR index, read from the same cache
    assert rg.is_local(ring) == _is_local_by_non_units(ring)
    assert len(ring.primitive_idempotents) == len(local_decomposition(ring).factors)
    assert rg.is_spir(ring) == _is_spir_by_powers(ring)


def test_ideal_validation(z12, z4):
    with pytest.raises(PreconditionError):
        rg.Ideal.from_indices(z12, [1])  # contains a unit but misses most of R
    assert list(inspect.signature(rg.Ideal.from_indices).parameters) == ["ring", "indices"]
    crossed = il.principal_ideal(z4, 2)
    with pytest.raises(PreconditionError):
        il.ideal_sum(crossed, il.principal_ideal(z12, 2))


def _relabeled(ring, seed):
    """ring with its elements renamed by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(ring.order)
    inv = np.argsort(perm)
    return rg.FiniteRing(ring.order, perm[ring.add[inv[:, None], inv]], perm[ring.mul[inv[:, None], inv]],
                         int(perm[ring.zero]), int(perm[ring.one]), f"{ring.label}^pi")


def _small_rings():
    f2 = rg.make_gf(2)
    return [*(rg.make_zmod(n) for n in range(2, 9)), rg.make_gf(2, 2),
            rg.poly_quotient(f2, [0, 0, 1], var="t").ring, rg.poly_quotient(f2, [0, 0, 0, 1], var="t").ring,
            rg.product([f2, f2]).ring, rg.product([f2, f2, f2]).ring, rg.product([f2, rg.make_zmod(4)]).ring]


def _zero_subsets(ring):
    """Every subset of the ring's elements that holds zero, sorted."""
    others = [x for x in range(ring.order) if x != ring.zero]
    for k in range(len(others) + 1):
        for rest in itertools.combinations(others, k):
            yield tuple(sorted((ring.zero, *rest)))


@pytest.mark.parametrize("seed", [None, 38])
def test_the_ideal_check_on_the_generators_is_the_full_scan(seed, ideal_by_full_scan):
    # every subset holding zero of every ring of order <= 8, as built and
    # relabeled: the constructor, which reads absorption on generator pairs,
    # refuses exactly the subsets that the full scan of the mul table
    # refuses, additive subgroups that are not ideals too
    non_absorbing = 0
    for ring in _small_rings():
        if seed is not None:
            ring = _relabeled(ring, seed + ring.order)
        for elements in _zero_subsets(ring):
            is_ideal = ideal_by_full_scan(ring, elements)
            if is_ideal:
                assert rg.Ideal(ring, elements).elements == elements
            else:
                with pytest.raises(PreconditionError, match="subset is not an ideal"):
                    rg.Ideal(ring, elements)
            mask = np.zeros(ring.order, dtype=bool)
            mask[list(elements)] = True
            idx = np.asarray(elements)
            non_absorbing += bool(mask[ring.add[idx[:, None], idx]].all()) and not is_ideal
    assert non_absorbing


@pytest.mark.parametrize("elements", [(6, 0), (0, 0, 6), (0, -6), (0, 1), [0, 6], (0.0, 6.5), (False, 6)],
                         ids=["unsorted", "repeated", "negative", "no ideal", "a list", "floats", "a bool"])
def test_the_constructor_refuses_a_tuple_that_is_not_a_canonical_ideal(z12, elements):
    # each of these built an Ideal once: (6, 0) was unequal to (0, 6) and not
    # among all_ideals, (0, 0, 6) had order 3, (0, -6) was labeled {0,-6},
    # ideal_sum of (0, 1) with zero gave (0, 1), over which
    # quotient_ideal_count counted 5 ideals, and (0.0, 6.5) had no mask
    with pytest.raises(PreconditionError, match="subset is not an ideal"):
        rg.Ideal(z12, elements)
    assert rg.Ideal(z12, (0, 6)) == il.principal_ideal(z12, 6) and rg.Ideal(z12, (0, 6)) in il.all_ideals(z12)


@pytest.mark.parametrize("seed", [None, 41])
def test_a_subgroup_that_does_not_absorb_is_refused_at_every_boundary(seed):
    # every additive subgroup that is not an ideal, of every ring of order
    # <= 8: it passes the walk, so only absorption on generator pairs refuses
    # it, in the constructor, in quotient on raw indices and, as a submodule
    # of R over itself, in quotient_module
    refused = 0
    for ring in _small_rings():
        if seed is not None:
            ring = _relabeled(ring, seed + ring.order)
        ideals = {i.elements for i in il.all_ideals(ring)}
        module = md.module_from_ring(ring)
        for elements in _zero_subsets(ring):
            mask = np.zeros(ring.order, dtype=bool)
            mask[list(elements)] = True
            if elements in ideals or rg.subgroup_generators(ring.add, ring.zero, mask) is None:
                continue
            with pytest.raises(PreconditionError, match="subset is not an ideal"):
                rg.Ideal(ring, elements)
            with pytest.raises(PreconditionError, match="subset is not an ideal"):
                rg.quotient(ring, list(elements))
            with pytest.raises(PreconditionError, match="subset is not a submodule"):
                md.quotient_module(module, elements)
            refused += 1
    assert refused


def test_an_ideal_built_by_a_closure_is_not_checked_again(monkeypatch):
    # the closures build through the unchecked constructor, and quotient
    # trusts an Ideal: neither calls is_submodule
    rings = _small_rings()

    def refuse(*args):
        raise AssertionError("is_submodule called")

    monkeypatch.setattr(rg, "is_submodule", refuse)
    for ring in rings:
        ideals = il.all_ideals(ring)
        for i in ideals:
            if not i.is_whole:
                rg.quotient(ring, i)
        il.colon(ideals[0], ideals[-1])
        il.spectrum(ring)
    with pytest.raises(AssertionError, match="is_submodule called"):
        rg.quotient(rings[0], [0])


@pytest.mark.parametrize("seed", [None, 38])
def test_the_subgroup_walk_is_the_all_pairs_closure(seed):
    # the same corpus: the walk refuses exactly the sets that a sum of two of
    # their elements leaves, and otherwise returns generators of the set,
    # each its least element outside the span of the earlier ones
    for ring in _small_rings():
        if seed is not None:
            ring = _relabeled(ring, seed + ring.order)
        for elements in _zero_subsets(ring):
            mask = np.zeros(ring.order, dtype=bool)
            mask[list(elements)] = True
            idx = np.asarray(elements)
            gens = rg.subgroup_generators(ring.add, ring.zero, mask)
            assert (gens is not None) == bool(mask[ring.add[idx[:, None], idx]].all()), (ring, elements)
            if gens is None:
                continue
            assert len(gens) <= math.log2(len(elements))
            for i, g in enumerate(gens):
                span = rg.closure_mask(ring.order, [ring.zero, *gens[:i]], (ring.add,))
                assert g == (mask & ~span).nonzero()[0][0], (ring, elements)
            assert (rg.closure_mask(ring.order, [ring.zero, *gens], (ring.add,)) == mask).all()
        # without zero, no set is a subgroup
        no_zero = np.ones(ring.order, dtype=bool)
        no_zero[ring.zero] = False
        assert rg.subgroup_generators(ring.add, ring.zero, no_zero) is None
        assert rg.subgroup_generators(ring.add, ring.zero, np.zeros(ring.order, dtype=bool)) is None
    # {0, 1} of F4 is a subgroup but no ideal
    with pytest.raises(PreconditionError, match="subset is not an ideal"):
        rg.Ideal(rg.make_gf(2, 2), (0, 1))


def test_coerce_ideal(z12, z4):
    i4 = il.principal_ideal(z12, 4)
    assert il.coerce_ideal(z12, i4) is i4
    assert il.coerce_ideal(z12, [8]) == i4
    with pytest.raises(PreconditionError, match="ideal belongs to a different ring"):
        il.coerce_ideal(z12, il.principal_ideal(z4, 2))


@pytest.mark.parametrize("build", [cr.make_family, md.module_from_cyclics])
def test_ideal_of_another_ring_is_refused(build, z12, z4):
    with pytest.raises(PreconditionError, match="ideal belongs to a different ring"):
        build(z12, [il.principal_ideal(z4, 2), [0]])


def test_conductor_of_diagonal(z4):
    from ringlat.lattice import power_extension

    ext = power_extension(z4, 2)
    assert il.conductor(ext).is_zero


def test_conductor_refuses_an_image_that_is_not_an_ideal(f2):
    from ringlat.lattice import power_extension

    ext = power_extension(f2, 2)
    # an image mask of all of F2^2 puts 1 in the conductor, and the diagonal
    # {0, 1} of F2^2 is not an ideal
    forged = SimpleNamespace(base=ext.base, top=ext.top, embed=ext.embed,
                             image_mask=np.ones(ext.top.order, dtype=bool))
    with pytest.raises(InternalCheckError, match="not an ideal"):
        il.conductor(forged)


def test_conductor_refuses_an_image_that_misses_zero(f2):
    from ringlat.lattice import power_extension

    ext = power_extension(f2, 2)
    # without the add strip, the walk alone refuses a conductor that is no
    # subgroup: an image mask without zero leaves zero out of it
    image_mask = ext.image_mask.copy()
    image_mask[ext.top.zero] = False
    forged = SimpleNamespace(base=ext.base, top=ext.top, embed=ext.embed, image_mask=image_mask)
    with pytest.raises(InternalCheckError, match="not an ideal"):
        il.conductor(forged)


def test_annihilator(z4):
    from ringlat.modules import module_from_cyclics

    mod = module_from_cyclics(z4, [[2]])
    ann = il.annihilator(mod)
    assert sorted(ann.elements) == [0, 2]


@pytest.mark.parametrize("seed", [None, 40])
def test_colon_on_every_ideal_pair_is_the_full_scan(seed, colon_by_full_scan):
    for ring in [*_small_rings(), rg.make_zmod(12)]:
        if seed is not None:
            ring = _relabeled(ring, seed + ring.order)
        ideals = il.all_ideals(ring)
        for a, b in itertools.product(ideals, repeat=2):
            assert il.colon(a, b) == colon_by_full_scan(a, b), (ring, a, b)


def test_colon_refuses_a_second_set_that_is_not_an_ideal(z12):
    with pytest.raises(PreconditionError, match="subset is not an ideal"):
        il.colon(il.unit_ideal(z12), rg.Ideal(z12, (0, 1)))


@pytest.mark.parametrize("build", [
    lambda: md.module_from_cyclics(rg.make_zmod(12), []),
    lambda: md.module_from_ring(rg.make_zmod(8)),
    lambda: md.module_from_ring(rg.poly_quotient(rg.make_gf(2), [0, 0, 1], var="t").ring),
    lambda: md.module_from_cyclics(rg.make_zmod(12), [[4], [6]]),
    lambda: md.module_from_cyclics(rg.make_zmod(4), [[0], [2]]),
    lambda: md.module_from_cyclics(rg.make_gf(2, 2), [[0], [0]]),
    lambda: md.quotient_module(md.module_from_cyclics(rg.make_zmod(12), [[4], [6]]), [0, 3]).module,
], ids=["zero module", "Z/8", "F2[t]/(t^2)", "Z/4 + Z/6 over Z/12", "Z/4 + Z/2", "F4^2", "a quotient"])
def test_the_annihilator_is_the_full_scan(build, annihilator_by_full_scan):
    m = build()
    assert il.annihilator(m) == annihilator_by_full_scan(m)


def test_colon_contains(z12):
    i2 = il.principal_ideal(z12, 2)
    i4 = il.principal_ideal(z12, 4)
    assert il.contains(i2, i4)
    assert not il.contains(i4, i2)
