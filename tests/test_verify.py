"""The verify runner: each check is declared once by @_check(suite, name),
which registers it in SUITES and turns a RinglatError into a failed
CheckResult; every check of the module is registered exactly once.  The
cached corpora build each structure once."""

import dataclasses
import inspect
import sys

import pytest

import test_acceptance
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat import verify as vf
from ringlat.errors import PreconditionError, SizeLimitError

SUITE_ORDER = {
    "s2": ["criterion_01_bell_counts", "criterion_04_trichotomy", "criterion_08_closure_oracles",
           "criterion_09_special_ramified", "check_product_length_additivity",
           "check_partition_bijection", "check_canonical_chain", "check_lattice_certificate",
           "check_hasse_edges"],
    "s3": ["criterion_02_spir_counts", "criterion_05_conductor_formula",
           "criterion_06_crt_minimality", "check_crt_reduction_poset", "check_crt_infra_integral",
           "check_crt2_count_prediction", "check_gilbert_correspondence"],
    "s4": ["criterion_03_stirling_exal"],
    "s5": ["criterion_07_idealization", "criterion_10_pointwise_minimal", "criterion_11_census",
           "check_uniserial_structure"],
    "s6": ["criterion_12_property_suites"],
}


def module_checks() -> dict[str, object]:
    """Every module-level criterion_*/check_* function of verify, by name."""
    return {name: fn for name, fn in vars(vf).items()
            if inspect.isfunction(fn) and name.startswith(("criterion_", "check_"))}


def test_suites_keep_their_checks_in_order():
    assert {suite: [fn.__name__ for fn in fns] for suite, fns in vf.SUITES.items()} == SUITE_ORDER
    assert list(vf.SUITES) == list(SUITE_ORDER)
    assert vf.SUITE_CHOICES == ("all", "s2", "s3", "s4", "s5", "s6")


def test_every_check_is_in_exactly_one_suite():
    registered = [fn for fns in vf.SUITES.values() for fn in fns]
    checks = module_checks()
    assert len(checks) == 22
    assert sorted(fn.__name__ for fn in registered) == sorted(checks)
    for fn in registered:
        assert checks[fn.__name__] is fn


def test_acceptance_runs_every_registered_criterion_in_number_order():
    registered = [fn for fns in vf.SUITES.values() for fn in fns
                  if fn.__name__.startswith("criterion_")]
    assert test_acceptance.CRITERIA == sorted(registered, key=lambda fn: fn.__name__)


def test_ringlat_error_is_a_failed_check(monkeypatch):
    def refuse():
        raise SizeLimitError("x")

    monkeypatch.setattr(vf, "_bell_lattices", refuse)
    result = vf.criterion_01_bell_counts()
    expected = vf.CheckResult("bell_counts_for_field_powers", False, "SizeLimitError: x")
    # a NamedTuple equals any tuple of equal values; repr also names the class
    assert result == expected and repr(result) == repr(expected)


def test_other_errors_propagate(monkeypatch):
    def broken():
        raise ValueError("boom")

    monkeypatch.setattr(vf, "_bell_lattices", broken)
    with pytest.raises(ValueError, match="boom"):
        vf.criterion_01_bell_counts()


def test_decorator_registers_in_definition_order(monkeypatch):
    monkeypatch.setattr(vf, "SUITES", {})

    @vf._check("t1", "first_check")
    def check_first():
        """Docstring kept."""
        return 1, "one"

    @vf._check("t1", "second_check")
    def check_second():
        return [], "empty"

    assert vf.SUITES == {"t1": [check_first, check_second]}
    assert check_first.__name__ == "check_first"
    assert check_first.__doc__ == "Docstring kept."
    first, second = check_first(), check_second()
    assert first == vf.CheckResult("first_check", True, "one")
    assert repr(first) == repr(vf.CheckResult("first_check", True, "one"))
    assert first.passed is True
    assert second == vf.CheckResult("second_check", False, "empty")
    assert repr(second) == repr(vf.CheckResult("second_check", False, "empty"))


def test_unknown_suite_message():
    with pytest.raises(PreconditionError) as info:
        vf.run_suite("nope")
    assert str(info.value) == "unknown suite 'nope'; pick all, s2, s3, s4, s5 or s6"


def fresh_corpora():
    """Empty every lru_cache of verify, so the next check builds its corpus."""
    for fn in vars(vf).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def count_calls(monkeypatch, module, name) -> list[tuple]:
    """The positional arguments of each call to module.name, through every
    binding of that function in the package."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if (key == "ringlat" or key.startswith("ringlat.")) and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_s5_builds_each_idealization_once(monkeypatch):
    fresh_corpora()
    calls = count_calls(monkeypatch, md, "idealize")
    assert all(r.passed for r in vf.run_suite("s5"))
    # 17 corpus modules and 3 census modules small enough for the lattice check
    assert len(calls) <= 20


def test_s5_measures_each_distinct_quotient_once(monkeypatch):
    fresh_corpora()
    keyed = count_calls(monkeypatch, vf, "_keyed_quotient")
    measured = count_calls(monkeypatch, md, "length_and_count")
    assert vf.criterion_07_idealization().passed
    # every one of the 72 intervals is compared, against 29 distinct M/N
    assert (len(keyed), len(measured)) == (72, 29)


def test_s3_enumerates_each_extension_once(monkeypatch):
    fresh_corpora()
    calls = count_calls(monkeypatch, lt, "intermediate_algebras")
    assert all(r.passed for r in vf.run_suite("s3"))
    # the recorded arguments keep each extension alive, so no id is reused
    assert len({id(args[0]) for args in calls}) == len(calls)


def test_closure_oracles_realize_each_node_once(monkeypatch):
    fresh_corpora()
    calls = count_calls(monkeypatch, lt, "realize")
    assert vf.criterion_08_closure_oracles().passed
    # the corpus nodes are read as intervals [R, node] on the lattice's top,
    # so the only realizations are one in each of 3 crt seminormalizations
    assert len(calls) == 3


def test_lattice_certificate_rejects_a_missing_or_foreign_node():
    rep = lt.intermediate_algebras(lt.power_extension(rg.make_gf(2), 3))
    assert vf.lattice_certificate(rep) == ""
    without = [rep.nodes[:i] + rep.nodes[i + 1:] for i in range(rep.count)]
    assert vf.lattice_certificate(dataclasses.replace(rep, nodes=without[0])) \
        == "the closure of the image is not a node"
    for nodes in without[1:]:
        assert "closes to no node" in vf.lattice_certificate(dataclasses.replace(rep, nodes=nodes))
    # the image with one more element is not closed under +
    ext = rep.extension
    extra = next(x for x in range(ext.top.order) if x not in ext.image)
    foreign = lt.Subalgebra(ext, tuple(sorted((*ext.image, extra))))
    assert vf.lattice_certificate(dataclasses.replace(rep, nodes=rep.nodes + (foreign,))) \
        == f"node {rep.count} is not a subalgebra over the image"


@pytest.mark.parametrize("chains", [
    ({2: 1, 3: 1}, (0, 1, 4)),  # a path of covers, but not a longest one
    ({2: 1, 3: 1}, (0, 2, 4)),  # (2, 4) is no cover
    ({2: 1, 3: 1}, (0, 2, 3)),  # stops below the top
    ({2: 1, 3: 1}, (1, 4)),  # starts above the bottom
    ({2: 2}, (0, 2, 3, 4)),  # the counts miss the longest chain
])
def test_the_chain_check_rejects_wrong_chain_data(chains):
    # the pentagon N5: {} < {a} < {a,b,c} and {} < {b} < {b,c} < {a,b,c}
    sets = ((), (0,), (1,), (1, 2), (0, 1, 2))
    edges = ((0, 1), (0, 2), (1, 4), (2, 3), (3, 4))
    assert vf._is_longest_chain(lt.Poset(sets, edges))
    wrong = lt.Poset(sets, edges)
    vars(wrong)["_chains"] = chains
    assert not vf._is_longest_chain(wrong)
