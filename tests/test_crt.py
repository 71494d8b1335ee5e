import math
import random

import numpy as np
import pytest

from ringlat import crt as cr
from ringlat import ideals as il
from ringlat import lattice as lt
from ringlat import rings as rg
from ringlat.errors import PreconditionError


def test_family_validation(z12):
    with pytest.raises(PreconditionError):
        cr.make_family(z12, [[4]])  # a single ideal never separates
    with pytest.raises(PreconditionError):
        cr.make_family(z12, [[4], [1]])  # the whole ring is not allowed


def test_comaximal_pair_is_isomorphism():
    z6 = rg.make_zmod(6)
    crt = cr.make_crt(z6, [[2], [3]])
    assert crt.is_isomorphism
    assert cr.conductor_by_formula(crt).is_whole
    red = cr.reduce_to_zero_conductor(crt)
    assert red.crt_isomorphism
    assert red.crt is None
    assert red.dropped == (0, 1)


def test_z12_three_ideal_family(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    fam = crt.family
    assert fam.n == 3
    assert not fam.normalized  # the intersection is already zero
    assert sorted(cr.conductor_by_formula(crt).elements) == [0, 3, 6, 9]
    assert cr.weak_crt_check(crt) == (True, True, True)
    assert cr.is_minimal_crt(crt) == (1, 2)
    assert lt.intermediate_algebras(crt.extension).count == 2


def test_z12_non_minimal_family(z12):
    crt = cr.make_crt(z12, [[4], [3], [6]])
    assert cr.is_minimal_crt(crt) is None
    assert lt.intermediate_algebras(crt.extension).count != 2


def test_minimality_criterion_needs_three(z12):
    crt = cr.make_crt(z12, [[4], [3]])
    with pytest.raises(PreconditionError):
        cr.is_minimal_crt(crt)


def test_two_ideal_field_case():
    z9 = rg.make_zmod(9)
    crt = cr.make_crt(z9, [[3], [0]])
    res = cr.is_minimal_crt2(crt)
    assert res.minimal  # Z/9 over (3) is a field
    assert res.predicted_count == 2
    assert lt.intermediate_algebras(crt.extension).count == 2


def test_two_ideal_count_prediction(z8):
    crt = cr.make_crt(z8, [[4], [0]])
    res = cr.is_minimal_crt2(crt)
    assert not res.minimal  # (4) + 0 = (4), and Z/8 over (4) is Z/4
    assert res.predicted_count == 3  # ideal count of Z/4
    assert res.predicted_count == lt.intermediate_algebras(crt.extension).count


def test_normalization_quotients_the_intersection(z12):
    crt = cr.make_crt(z12, [[4], [2]])
    fam = crt.family
    assert fam.normalized
    assert fam.ring.order == 4  # Z/12 modulo (4) meet (2) = (4)
    assert crt.extension.base.order == 4
    zero = il.zero_ideal(fam.ring)
    inter = fam.ideals[0]
    for ideal in fam.ideals[1:]:
        inter = il.ideal_intersection(inter, ideal)
    assert inter == zero


def test_reduction_keeps_surviving_factors(z12):
    crt = cr.make_crt(z12, [[4], [3], [6]])
    red = cr.reduce_to_zero_conductor(crt)
    assert not red.crt_isomorphism
    assert red.dropped == ()
    assert red.crt.family.ring.order == 6  # base becomes Z/12 over (6)
    assert cr.conductor_by_formula(red.crt).is_zero


def test_reduction_drops_comaximal_factor(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    red = cr.reduce_to_zero_conductor(crt)
    assert red.dropped == (0,)
    assert red.crt.family.ring.order == 3
    assert red.projection is not None


@pytest.mark.parametrize("n, gens", [(10, [[2], [2]]), (8, [[0], [0]]), (12, [[0], [0], [0]])])
def test_a_zero_conductor_family_is_its_own_reduction(n, gens):
    crt = cr.make_crt(rg.make_zmod(n), gens)
    assert crt.conductor.is_zero
    red = cr.reduce_to_zero_conductor(crt)
    assert red.crt is crt
    assert red.dropped == ()
    assert not red.crt_isomorphism
    base = crt.family.ring
    assert red.projection.source is red.projection.target is base
    assert red.projection.map.tolist() == list(range(base.order))


def test_minimality_and_reduction_read_each_sum_table_once(z12, monkeypatch):
    crt = cr.make_crt(z12, [[2], [4], [6]])
    calls = []
    orig = cr.SeparatingFamily._plus
    monkeypatch.setattr(cr.SeparatingFamily, "_plus", lambda fam, a, b: calls.append(1) or orig(fam, a, b))
    cr.is_minimal_crt(crt)
    assert len(calls) == 6  # the pair sums off the diagonal, read once
    calls.clear()
    cr.reduce_to_zero_conductor(crt)
    assert len(calls) == 2 + 3  # the complement sum, then widened read once


def test_seminormalization_of_crt(z8):
    crt = cr.make_crt(z8, [[0], [0]])
    res = cr.seminormalization_of_crt(crt)
    assert sorted(res.annihilator_of_maximal.elements) == [0, 4]
    assert res.node.order == 32  # R + M(R x R) inside the 64-element product


def test_seminormalization_needs_local_base(z12):
    crt = cr.make_crt(z12, [[0], [0]])
    with pytest.raises(PreconditionError):
        cr.seminormalization_of_crt(crt)


def test_crt_extension_is_infra_integral(z12):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    assert lt.is_infra_integral(crt.extension)
    assert lt.is_delta0(crt.extension)


def _families():
    """Derandomized separating families: 2-4 ideals, drawn with repeats, over
    Z/n (n <= 72) and three field products, with tops small enough to
    realize; a family with a nonzero intersection is normalized."""
    draw = random.Random(37)
    f2, f3, f4 = rg.make_gf(2), rg.make_gf(3), rg.make_gf(2, 2)
    bases = [(f"Z/{n}", rg.make_zmod(n)) for n in (6, 8, 12, 18, 24, 30, 36, 45, 60, 72)]
    bases += [("F2xF4", rg.product([f2, f4]).ring), ("F3xF3", rg.product([f3, f3]).ring),
              ("F2xF2xF3", rg.product([f2, f2, f3]).ring)]
    out = []
    for label, ring in bases:
        ideals = [i for i in il.all_ideals(ring) if not i.is_whole]
        kept = 0
        while kept < 3:
            fam = [draw.choice(ideals) for _ in range(draw.choice((2, 3, 4)))]
            if math.prod(ring.order // i.order for i in fam) <= 1024:
                out.append((f"{label}:{'|'.join(str(i.order) for i in fam)}", ring, fam))
                kept += 1
    return out


FAMILIES = _families()


def test_the_families_cover_each_kind():
    fams = [fam for _, _, fam in FAMILIES]
    assert {len(fam) for fam in fams} == {2, 3, 4}
    assert any(len(set(fam)) < len(fam) for fam in fams)
    made = [cr.make_crt(ring, fam) for _, ring, fam in FAMILIES]
    assert any(crt.family.normalized for crt in made) and not all(crt.family.normalized for crt in made)
    assert any(crt.conductor.is_zero for crt in made) and any(crt.is_isomorphism for crt in made)


def _conductor_on_the_top(ext):
    """Oracle: the r whose row of the realized top's mul table lies in the image."""
    top, emb = ext.top, ext.embed.map
    image = np.zeros(top.order, dtype=bool)
    image[emb] = True
    return tuple(int(r) for r in range(ext.base.order) if image[top.mul[emb[r]]].all())


@pytest.mark.parametrize("label, ring, fam", FAMILIES, ids=[label for label, _, _ in FAMILIES])
def test_the_conductor_off_the_factors_is_the_conductor_on_the_top(label, ring, fam):
    crt = cr.make_crt(ring, fam)
    ext = crt.extension
    assert ext.top.order == crt.top_order
    assert crt.conductor == il.conductor(ext)
    assert crt.conductor.elements == _conductor_on_the_top(ext)
    assert cr.conductor_by_formula(crt) == crt.conductor


@pytest.mark.parametrize("label, ring, fam", FAMILIES, ids=[label for label, _, _ in FAMILIES])
def test_the_conductor_read_in_small_blocks_is_the_conductor_on_the_top(label, ring, fam, monkeypatch):
    # blocks of at most 4 entries: the strip of R's rows at the top's
    # generator columns comes in several pieces unless it fits in one, and
    # the pieces must join into the same conductor
    monkeypatch.setattr(rg, "_BUILD_ENTRIES", 4)
    pieces, widths, real = [], [], rg.product_table_rows

    def counted(tables, rows, cols):
        blocks = list(real(tables, rows, cols))
        pieces.append(len(blocks))
        widths.append(len(cols[0]))
        return iter(blocks)

    monkeypatch.setattr(il, "product_table_rows", counted)
    crt = cr.make_crt(ring, fam)
    assert pieces[0] > 1 or crt.family.ring.order * widths[0] <= 4
    ext = crt.extension
    assert crt.conductor == il.conductor(ext)
    assert crt.conductor.elements == _conductor_on_the_top(ext)


def test_a_missing_generator_is_caught(monkeypatch):
    # R maps onto each factor, so S = (the other factors) + R and the columns
    # of any one factor are redundant: dropping a single column changes no
    # conductor.  Dropping one generator of the base drops its image in every
    # factor, and then some family's conductor is no longer the conductor on
    # the top
    made = [(cr.make_crt(ring, fam), ring, fam) for _, ring, fam in FAMILIES]
    oracles = [_conductor_on_the_top(crt.extension) for crt, _, _ in made]
    f4_over_f2 = lt.Extension(rg.prime_hom(rg.make_gf(2), rg.make_gf(2, 2)))
    assert il.conductor(f4_over_f2).elements == _conductor_on_the_top(f4_over_f2) == (0,)
    real = il._generator_columns
    with monkeypatch.context() as patch:
        patch.setattr(il, "_generator_columns", lambda factors, gens: [c[:-1] for c in real(factors, gens)])
        assert [cr.make_crt(ring, fam).conductor.elements for _, ring, fam in made] == oracles
    all_generators = rg.FiniteRing.additive_generators.func
    monkeypatch.setattr(rg.FiniteRing, "additive_generators", property(lambda ring: all_generators(ring)[:-1]))
    assert [cr.make_crt(ring, fam).conductor.elements for _, ring, fam in made] != oracles
    # over a top that is not a product of quotients of R, one missing
    # generator shows: F4 over F2 has conductor 0, and without the generator
    # 2 of F4 it reads as F2
    assert il.conductor(f4_over_f2).elements == (0, 1)


@pytest.mark.parametrize("label, ring, fam", FAMILIES[::4], ids=[label for label, _, _ in FAMILIES[::4]])
def test_the_conductor_is_carried_by_a_relabeling_of_the_base(label, ring, fam):
    perm = np.random.default_rng(sum(map(ord, label))).permutation(ring.order)
    inv = np.argsort(perm)
    other = rg.FiniteRing(ring.order, perm[ring.add[inv[:, None], inv]], perm[ring.mul[inv[:, None], inv]],
                          int(perm[ring.zero]), int(perm[ring.one]), f"{ring.label}^pi")
    crt = cr.make_crt(ring, fam)
    moved = cr.make_crt(other, [perm[list(i.elements)].tolist() for i in fam])
    assert (moved.top_order, moved.is_isomorphism, moved.family.normalized, moved.conductor.order) == (
        crt.top_order, crt.is_isomorphism, crt.family.normalized, crt.conductor.order)
    if not crt.family.normalized:
        assert moved.conductor.elements == tuple(sorted(perm[list(crt.conductor.elements)].tolist()))


@pytest.mark.parametrize("label, ring, fam", FAMILIES[1::5], ids=[label for label, _, _ in FAMILIES[1::5]])
def test_the_realized_extension_is_the_eager_product_and_pair_hom(label, ring, fam,
                                                                  brute_force_product_tables):
    crt = cr.make_crt(ring, fam)
    ext = crt.extension
    assert crt.extension is ext
    add, mul = brute_force_product_tables(crt.factors)
    assert (ext.top.add == add).all() and (ext.top.mul == mul).all()
    orders = [f.order for f in crt.factors]
    assert (ext.embed.map == np.ravel_multi_index(crt.projections, orders)).all()
    assert ext.base is crt.family.ring
    assert all((p == rg.quotient(crt.family.ring, i).projection.map).all()
               for p, i in zip(crt.projections, crt.family.ideals))


def test_a_realized_extension_validates_its_pair_hom(z12, monkeypatch):
    crt = cr.make_crt(z12, [[4], [3], [3]])
    made = []
    real = rg.RingHom.__post_init__
    monkeypatch.setattr(rg.RingHom, "__post_init__", lambda hom: made.append(hom) or real(hom))
    ext = crt.extension
    assert made == [ext.embed]


def test_a_crt_extension_is_an_immutable_identity_object(z12):
    # no field can be set and no attribute added, and two makes of one
    # family are two objects
    crt = cr.make_crt(z12, [[4], [3], [3]])
    for field in ("family", "factors", "projections", "conductor", "added"):
        with pytest.raises(AttributeError):
            setattr(crt, field, None)
    assert crt == crt and crt != cr.make_crt(z12, [[4], [3], [3]])
