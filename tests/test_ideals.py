import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import crt as cr
from ringlat import dsl
from ringlat import ideals as il
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import PreconditionError


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
    assert spec.primes == spec.maximals


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


SPECTRUM_RINGS = [f"Z/{n}" for n in range(2, 65)] + [
    "Z/2 x Z/2", "Z/4 x Z/2", "Z/6 x Z/4", "GF(2^2) x Z/9", "Z/2 x Z/3 x Z/2",
    "Z/4 x Z/2 x Z/3", "Z/2[t]/(t^2) x GF(2^2)", "Z/3 x Z/2[t]/(t^2) x Z/2",
    "GF(2^3)", "GF(3^2)", "GF(2^4)", "GF(5^2)",
    "Z/2[t]/(t^3)", "Z/3[t]/(t^2)", "Z/2[t]/(t^2+t)", "Z/2[t]/(t^3+1)",
    "Z/4[t]/(t^2+1)", "(Z/2[t]/(t^2))[x]/(x^2-t, x*t)", "Z/2[t]/(t^2, t^5)",
    "idealize(Z/4, (2) + ())", "idealize(Z/6, (2))",
]


@pytest.mark.parametrize("text", SPECTRUM_RINGS)
def test_spectrum_matches_ideal_enumeration(text):
    ring = dsl.build_text(text).ring
    spec = il.spectrum(ring)
    primes, maximals, jacobson = _spectrum_by_enumeration(ring)
    assert spec.primes == primes
    assert spec.maximals == maximals
    assert spec.jacobson == jacobson
    nil = np.logical_and.reduce([p.mask for p in primes])
    assert spec.nilradical == rg.Ideal(ring, rg.mask_elements(nil))


def test_ideal_validation(z12, z4):
    with pytest.raises(PreconditionError):
        rg.Ideal.from_indices(z12, [1])  # contains a unit but misses most of R
    crossed = il.principal_ideal(z4, 2)
    with pytest.raises(PreconditionError):
        il.ideal_sum(crossed, il.principal_ideal(z12, 2))


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


def test_annihilator(z4):
    from ringlat.modules import module_from_cyclics

    mod = module_from_cyclics(z4, [[2]])
    ann = il.annihilator(mod)
    assert sorted(ann.elements) == [0, 2]


def test_colon_contains(z12):
    i2 = il.principal_ideal(z12, 2)
    i4 = il.principal_ideal(z12, 4)
    assert il.contains(i2, i4)
    assert not il.contains(i4, i2)
