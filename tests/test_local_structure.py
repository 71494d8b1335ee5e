"""A ring's local structure is one cached computation.

Primes, locality, primitive idempotents and the SPIR index are read from
FiniteRing's cached primitive_idempotents and prime_elements.  They do not
depend on how the elements are numbered, every question about maximality or
factor count answers without building a quotient or a local decomposition,
and the cache holds no reference back to its ring."""

import gc
import importlib
import pkgutil
import weakref

import numpy as np
import pytest

import ringlat
from ringlat import cli
from ringlat import combinatorics as cb
from ringlat import crt as cr
from ringlat import dsl
from ringlat import ideals as il
from ringlat import lattice as lt
from ringlat import rings as rg

RELABELED = ["Z/12", "Z/8", "GF(2^3)", "Z/2[t]/(t^3)", "Z/4 x Z/2 x GF(2^2)",
             "idealize(Z/4, (2) + ())", "Z/4[t]/(t^2)/(2*t)", "Z/3 x Z/2[t]/(t^2)"]


def relabel(ring, perm):
    """The ring whose element perm[x] is x: both tables conjugated by perm."""
    inv = np.argsort(perm)
    return rg.FiniteRing(ring.order, perm[ring.add[np.ix_(inv, inv)]], perm[ring.mul[np.ix_(inv, inv)]],
                         int(perm[ring.zero]), int(perm[ring.one]), f"{ring.label}^pi")


def image(perm, elements):
    return frozenset(int(perm[x]) for x in elements)


@pytest.mark.parametrize("text", RELABELED)
def test_local_structure_is_invariant_under_relabeling(text, is_connected):
    ring = dsl.build_text(text).ring
    perm = np.random.default_rng(sum(map(ord, text))).permutation(ring.order)
    other = relabel(ring, perm)
    rg.check_ring_axioms(other)
    spec, spec_pi = il.spectrum(ring), il.spectrum(other)
    assert {image(perm, p.elements) for p in spec.primes} == {frozenset(p.elements) for p in spec_pi.primes}
    assert image(perm, spec.nilradical.elements) == frozenset(spec_pi.nilradical.elements)
    assert image(perm, ring.primitive_idempotents) == frozenset(other.primitive_idempotents)
    for pred in (is_connected, rg.is_field):
        assert pred(ring) == pred(other)
    m, m_pi = rg.is_local(ring), rg.is_local(other)
    assert (m is None) == (m_pi is None)
    if m is not None:
        assert image(perm, m.elements) == frozenset(m_pi.elements)
        assert rg.nilpotency_index(ring) == rg.nilpotency_index(other)
    wit, wit_pi = rg.is_spir(ring), rg.is_spir(other)
    assert (wit is None) == (wit_pi is None)
    if wit is not None:
        assert wit.index == wit_pi.index


def test_the_corpus_covers_each_kind_of_ring(is_connected):
    rings = [dsl.build_text(t).ring for t in RELABELED]
    assert sum(rg.is_field(r) for r in rings) >= 1
    assert sum(rg.is_spir(r) is not None for r in rings) >= 2
    assert sum(rg.is_local(r) is not None and rg.is_spir(r) is None and not rg.is_field(r) for r in rings) >= 1
    assert sum(not is_connected(r) for r in rings) >= 2


def test_repeated_queries_scan_the_idempotents_once(idempotent_scans, monkeypatch):
    # the primes are computed once per ring, off the one cached diagonal scan
    reads, real = [], rg._primitive_idempotents
    monkeypatch.setattr(rg, "_primitive_idempotents", lambda ring, mask: reads.append(ring) or real(ring, mask))
    for text in ("Z/12", "Z/8"):
        ring = dsl.build_text(text).ring
        for _ in range(3):
            il.spectrum(ring)
            rg.is_local(ring)
            rg.is_spir(ring)
            assert rg.idempotents(ring) == ring.idempotent_indices.tolist()
        assert idempotent_scans == [ring]
        assert reads == [ring]
        idempotent_scans.clear()
        reads.clear()


@pytest.mark.parametrize("argv", [["closures", "Z/2", "Z/2[t]/(t^4)"],
                                  ["closures", "Z/4", "Z/4 x Z/4 x Z/2[t]/(t^2)"]])
def test_a_closures_query_scans_each_ring_once(idempotent_scans, capsys, monkeypatch, argv):
    # subring_primes reads the top's idempotents once per node of the chain,
    # and each read is the one cached scan of its ring
    reads, real = [], rg._primitive_idempotents
    monkeypatch.setattr(rg, "_primitive_idempotents", lambda ring, mask: reads.append(ring) or real(ring, mask))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert reads and all(sum(s is r for s in idempotent_scans) == 1 for r in reads)
    assert len(reads) > len({id(r) for r in reads})


def _answers():
    z12 = rg.make_zmod(12)
    three = cr.make_crt(z12, [[4], [3], [3]])
    two = cr.make_crt(rg.make_zmod(8), [[0], [4]])  # R/(4) = Z/4
    report = lt.intermediate_algebras(lt.Extension(dsl.build_step(
        dsl.build_text("Z/2"), dsl.parse("Z/2[t]/(t^2)"))[1]))
    exal = cb.enumerate_exal(rg.product([rg.make_gf(2), rg.make_gf(2)]).ring, 2, 3)
    return lambda: (cr.is_minimal_crt(three), cr.is_minimal_crt2(two),
                    lt.classify_minimal(report), cb.exal_bound_check(exal))


def test_structure_questions_build_no_ring(monkeypatch):
    answer = _answers()
    want = answer()

    def refuse(*args):
        raise AssertionError("a ring was built to answer a question")

    patched = set()
    for info in pkgutil.iter_modules(ringlat.__path__):
        mod = importlib.import_module(f"ringlat.{info.name}")
        # the local decomposition is a test oracle (conftest), out of reach
        assert not hasattr(mod, "local_decomposition")
        if getattr(mod, "quotient", None) is rg.quotient:
            monkeypatch.setattr(mod, "quotient", refuse)
            patched.add(f"{info.name}.quotient")
    assert {"rings.quotient", "crt.quotient"} <= patched
    assert answer() == want
    assert want[0] == (1, 2) and want[1] == cr.Crt2Result(False, 3)
    assert want[2].kind == "ramified" and want[3].minimal_prime_count == 2


def test_a_ring_dies_with_its_last_reference(local_decomposition):
    # no reference cycle: without the cyclic collector, dropping the ring frees it
    gc.collect()
    gc.disable()
    try:
        ring = rg.make_zmod(12)
        il.spectrum(ring)
        rg.is_local(ring)
        rg.is_spir(ring)
        local_decomposition(ring)
        assert ring.prime_elements and ring.primitive_idempotents
        ref = weakref.ref(ring)
        del ring
        assert ref() is None
    finally:
        gc.enable()
