import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import closures as cl
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import PreconditionError


@pytest.fixture(scope="module")
def z4_square():
    z4 = rg.make_zmod(4)
    return lt.power_extension(z4, 2)


# frozen by the lattice oracle: the largest subintegral node of [Z/4, (Z/4)^2]
Z4_SQUARE_PLUS = (0, 2, 5, 7, 8, 10, 13, 15)


def test_seminormalization_of_z4_square(z4_square):
    plus = cl.seminormalization(z4_square)
    assert plus.elements == Z4_SQUARE_PLUS
    rep = lt.intermediate_algebras(z4_square)
    best = max((n for n in rep.nodes if lt.is_subintegral(lt.lower_extension(n))),
               key=lambda n: n.order)
    assert plus.elements == best.elements


def test_seminormalization_is_order_independent(z4_square):
    @given(st.permutations(list(range(16))))
    @settings(max_examples=15, deadline=None)
    def check(perm):
        assert cl.seminormalization(z4_square, _order=perm).elements == Z4_SQUARE_PLUS

    check()


def test_seminormalization_is_idempotent(z4_square):
    plus = cl.seminormalization(z4_square)
    again = cl.seminormalization(lt.upper_extension(plus))
    assert again.order == plus.order  # the seminormalization is seminormal in S


def test_t_closure_of_inert_is_trivial(f2, f4):
    ext = lt.Extension(f2, f4, rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    assert cl.t_closure(ext).order == 2
    assert cl.seminormalization(ext).order == 2


def test_t_closure_of_z4_square_is_whole(z4_square):
    assert cl.t_closure(z4_square).order == 16  # infra-integral extension


def test_canonical_decomposition_chain(z4_square):
    dec = cl.canonical_decomposition(z4_square)
    assert dec.base.order == 4
    assert dec.seminormalization.order == 8
    assert dec.tclosure.order == 16
    assert dec.top.order == 16
    data = dec.to_json()
    assert data["schema"] == 1
    assert list(data["seminormalization"]) == list(Z4_SQUARE_PLUS)


def test_diagonal_formulas_pass(z4):
    eps = rg.poly_quotient(z4, [0, 0, 1], var="u")
    fac = lt.Extension(z4, eps.ring, eps.to_quotient)
    rep = cl.verify_diagonal_formulas(z4, [fac, fac])
    assert rep.passed
    assert rep.seminorm_ok and rep.tclosure_ok
    assert rep.seminorm_expected == rep.seminorm_actual


def test_diagonal_formulas_need_local_base(f2):
    z6 = rg.make_zmod(6)
    eps = rg.poly_quotient(z6, [0, 0, 1], var="u")
    fac = lt.Extension(z6, eps.ring, eps.to_quotient)
    with pytest.raises(PreconditionError):
        cl.verify_diagonal_formulas(z6, [fac])


def test_diagonal_formulas_need_subintegral_factors(f2, f4):
    inert = lt.Extension(f2, f4, rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    with pytest.raises(PreconditionError):
        cl.verify_diagonal_formulas(f2, [inert, inert])
