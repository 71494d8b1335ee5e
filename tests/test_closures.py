import re

import numpy as np
import pytest

from ringlat import closures as cl
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.cli import resolve_extension
from ringlat.errors import InternalCheckError, PreconditionError


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


@pytest.mark.parametrize("name", ["mixed-product", "Z4[u]/(u^2)", "F2-in-F16", "idealization",
                                  "crt-Z12"])
def test_closures_are_the_largest_lattice_nodes(extension_zoo, name):
    # the oracle of verify.criterion_08: the largest subintegral and the
    # largest infra-integral node of the lattice
    ext = extension_zoo(name)
    rep = lt.intermediate_algebras(ext)
    lower = [(node, lt.lower_extension(node)) for node in rep.nodes]
    best_sub = max((node for node, e in lower if lt.is_subintegral(e)), key=lambda n: n.order)
    best_infra = max((node for node, e in lower if lt.is_infra_integral(e)), key=lambda n: n.order)
    assert cl.seminormalization(ext).elements == best_sub.elements
    assert cl.t_closure(ext).elements == best_infra.elements


@pytest.mark.parametrize("name", ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16",
                                  "idealization", "crt-Z12"])
def test_segments_match_realizing_each_from_scratch(extension_zoo, chain_segments, name):
    dec = cl.canonical_decomposition(extension_zoo(name))
    seg = chain_segments(dec)
    ends = {"R<+R": (dec.base, dec.seminormalization), "+R<tR": (dec.seminormalization, dec.tclosure),
            "+R<S": (dec.seminormalization, dec.top), "tR<S": (dec.tclosure, dec.top)}
    assert seg.keys() == ends.keys()
    ring_of = {}
    for key, (lower, upper) in ends.items():
        # the oracle realizes both ends afresh and looks each element up by value
        low, up = lt.realize(lower), lt.realize(upper)
        lookup = {int(x): i for i, x in enumerate(upper.elements)}
        for got, want in ((seg[key].base, low.ring), (seg[key].top, up.ring)):
            assert rg.same_tables(got, want) and got.label == want.label
        assert list(seg[key].embed.map) == [lookup[int(x)] for x in low.include.map]
        # one ring object per distinct node, shared by every segment at it
        for node, ring in ((lower, seg[key].base), (upper, seg[key].top)):
            assert ring_of.setdefault(node.elements, ring) is ring


def test_closures_separate_the_mixed_product(extension_zoo):
    dec = cl.canonical_decomposition(extension_zoo("mixed-product"))
    assert [dec.base.order, dec.seminormalization.order, dec.tclosure.order, dec.top.order] == [8, 16, 32, 64]


def test_seminormalization_is_idempotent(z4_square):
    plus = cl.seminormalization(z4_square)
    again = cl.seminormalization(lt.upper_extension(plus))
    assert again.order == plus.order  # the seminormalization is seminormal in S


def test_t_closure_of_inert_is_trivial(f2, f4):
    ext = lt.Extension(rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
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
    fac = lt.Extension(eps.to_quotient)
    rep = cl.verify_diagonal_formulas([fac, fac])
    assert rep.passed
    assert rep.seminorm_expected == rep.seminorm_actual
    assert rep.tclosure_expected == rep.tclosure_actual


def test_diagonal_formulas_need_local_base(f2):
    z6 = rg.make_zmod(6)
    eps = rg.poly_quotient(z6, [0, 0, 1], var="u")
    fac = lt.Extension(eps.to_quotient)
    with pytest.raises(PreconditionError):
        cl.verify_diagonal_formulas([fac])


def test_diagonal_needs_one_shared_base(z4, f2):
    with pytest.raises(PreconditionError, match="share one base"):
        cl.diagonal_into_factors([lt.power_extension(z4, 2), lt.power_extension(f2, 2)])
    with pytest.raises(PreconditionError, match="no factors"):
        cl.verify_diagonal_formulas([])


def test_diagonal_formulas_need_subintegral_factors(f2, f4):
    inert = lt.Extension(rg.RingHom(f2, f4, np.array([f4.zero, f4.one])))
    with pytest.raises(PreconditionError):
        cl.verify_diagonal_formulas([inert, inert])


def _realized_verdict(dec, chain_segments):
    """The first chain invariant that fails on the realized segments, by the
    message canonical_decomposition raises for it, or None."""
    seg = chain_segments(dec)
    if not lt.is_subintegral(seg["R<+R"]):
        return "R in +R is not subintegral"
    if dec.seminormalization.elements != dec.tclosure.elements and not (
            lt.is_seminormal(seg["+R<tR"]) and lt.is_infra_integral(seg["+R<tR"])):
        return "+R in tR is not seminormal infra-integral"
    if not lt.is_seminormal(seg["+R<S"]):
        return "+R in S is not seminormal"
    if not lt.is_tclosed(seg["tR<S"]):
        return "tR in S is not t-closed"
    return None


@pytest.mark.parametrize("name", ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16",
                                  "idealization", "crt-Z12"])
def test_the_chain_holds_on_the_realized_segments(extension_zoo, chain_segments, name):
    assert _realized_verdict(cl.canonical_decomposition(extension_zoo(name)), chain_segments) is None


@pytest.mark.parametrize("top, wrong, message", [
    # Z/2 in Z/2 x Z/2 is infra-integral with two primes over one: +R taken as S
    ("Z/2 x Z/2", {"seminormalization": "top"}, "R in +R is not subintegral"),
    # Z/2 in GF(2^2) is seminormal and t-closed: tR taken as S is not infra-integral
    ("GF(2^2)", {"t_closure": "top"}, "+R in tR is not seminormal infra-integral"),
    # Z/2 in Z/2[t]/(t^2) is subintegral: +R taken as R is not seminormal in tR = S
    ("Z/2[t]/(t^2)", {"seminormalization": "base"}, "+R in tR is not seminormal infra-integral"),
    # Z/2 in Z/2[t]/(t^2) is subintegral: +R = tR taken as R
    ("Z/2[t]/(t^2)", {"seminormalization": "base", "t_closure": "base"}, "+R in S is not seminormal"),
    # +R = R in Z/2 x Z/2, whose t-closure is S: tR taken as R
    ("Z/2 x Z/2", {"t_closure": "base"}, "tR in S is not t-closed"),
])
def test_a_wrong_chain_fails_its_check(monkeypatch, chain_segments, top, wrong, message):
    # each of the four checks still runs: a chain with one wrong node raises
    # its message, the first that the realized segments fail as well
    ext = resolve_extension("Z/2", top, None)
    nodes = {"base": lt.Subalgebra(ext, ext.image), "top": lt.Subalgebra(ext, tuple(range(ext.top.order)))}
    for closure, node in wrong.items():
        monkeypatch.setattr(cl, closure, lambda e, node=node: nodes[node])
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        cl.canonical_decomposition(ext)
    dec = cl.CanonicalDecomposition(nodes["base"], cl.seminormalization(ext), cl.t_closure(ext), nodes["top"])
    assert _realized_verdict(dec, chain_segments) == message
