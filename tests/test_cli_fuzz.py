"""Generated inputs against the exit-code contract of `ringlat.cli.main`:
every argv ends in 0 ok, 1 check failed, 2 bad input or 3 size bound, and
in time.  The size bounds are lowered so that generated rings stay cheap and
the size-limit path is reached often."""

import contextlib
import io
import os
import signal
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringlat import cli

CASE_SECONDS = 10

_ints = st.integers(min_value=0, max_value=40)
_var = st.sampled_from(["t", "u", "s"])
# mostly well-formed atoms, and any small integers in their places
_atom = st.one_of(
    st.builds("Z/{}".format, st.integers(2, 16)),
    st.builds("GF({}^{})".format, st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
    st.one_of(st.builds("Z/{}".format, _ints), st.builds("GF({}^{})".format, _ints, _ints)),
)


def _poly(var):
    """A monic polynomial in var with up to two lower terms, or any sum of
    terms in var."""
    def monic(d):
        lower = st.builds("{}*{}^{}".format, _ints, st.just(var), st.integers(0, d - 1))
        return st.lists(lower, max_size=2).map(lambda ts: "+".join([f"{var}^{d}", *ts]))

    terms = st.lists(st.builds("{}*{}^{}".format, _ints, st.just(var), _ints), min_size=1, max_size=3)
    return st.one_of(st.integers(1, 3).flatmap(monic), terms.map("-".join))


_constants = st.lists(_ints.map(str), min_size=1, max_size=2).map(", ".join)
_modspec = st.lists(st.lists(_ints.map(str), max_size=2).map(lambda g: "(" + ", ".join(g) + ")"),
                    min_size=1, max_size=3).map(" + ".join)
_poly_suffix = _var.flatmap(lambda v: st.lists(_poly(v), min_size=1, max_size=2).map(
    lambda ps: f"[{v}]/(" + ", ".join(ps) + ")"))


def _extend(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda fs: " x ".join(f"({f})" for f in fs)),
        st.builds("({}){}".format, inner, _poly_suffix),
        st.builds("({})/({})".format, inner, _constants),
        st.builds("idealize({}, {})".format, inner, _modspec),
    )


_grammar = st.recursive(_atom, _extend, max_leaves=3)
# token soup and arbitrary text reach the tokenizer and parser errors
_soup = st.text(alphabet=list("ZGF()[]/^x,+-*0123456789tu idealze"), max_size=30)
_dsl = st.one_of(_grammar, st.one_of(_soup, st.text(max_size=12)))


@st.composite
def _pair(draw):
    """A base and a top: unrelated, a suffix of the base, or a power of it."""
    base = draw(st.one_of(_grammar, _dsl))
    top = draw(st.one_of(
        _dsl,
        _poly_suffix.map(lambda suffix: f"({base}){suffix}"),
        _constants.map(lambda g: f"({base})/({g})"),
        st.integers(2, 3).map(lambda k: " x ".join([f"({base})"] * k)),
    ))
    return base, top


_embed = st.one_of(st.just([]), st.one_of(
    st.sampled_from([["--embed", "diagonal"], ["--embed", "first-factor"]]),
    st.lists(st.integers(-2, 40).map(str), max_size=8).map(lambda v: ["--embed", "explicit:" + ",".join(v)]),
    st.text(max_size=12).map(lambda e: ["--embed", e]),
))
_extension_cmd = st.builds(lambda cmd, pair, embed: [cmd, *pair, *embed],
                           st.sampled_from(["lattice", "classify", "closures"]), _pair(), _embed)
_crt_cmd = st.builds(lambda ring, groups: ["crt", ring, "--ideals", groups], _dsl, st.one_of(
    st.lists(_constants.map("({})".format), min_size=1, max_size=3).map(";".join),
    _soup))
_idealize_cmd = st.builds(lambda ring, spec: ["idealize", ring, "--module", spec], _dsl,
                          st.one_of(_modspec, _soup))
_count_arg = st.one_of(st.integers(-3, 20).map(str), st.text(max_size=6))
_count_cmd = st.one_of(
    st.builds(lambda n: ["count", "bell", n], _count_arg),
    st.builds(lambda n, p: ["count", "stirling", n, p], _count_arg, _count_arg),
    st.builds(lambda ring, p, n: ["count", "exal", ring, p, n], _dsl, _count_arg, _count_arg),
    st.builds(lambda what, rest: ["count", what, *rest],
              st.one_of(st.sampled_from(["bell", "stirling", "exal"]), st.text(max_size=6)),
              st.lists(_count_arg, max_size=4)),
)
_argv = st.one_of(_extension_cmd, _crt_cmd, _idealize_cmd, _count_cmd,
                  st.lists(st.text(max_size=10), max_size=4))


class _OverTime(Exception):
    pass


def _raise_over_time(signum, frame):
    raise _OverTime(f"no exit within {CASE_SECONDS} s")


def _exit_code(argv):
    """The exit code of one CLI run, with its output swallowed; a run that
    outlives CASE_SECONDS raises _OverTime."""
    previous = signal.signal(signal.SIGALRM, _raise_over_time)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as e:  # argparse rejects the argv
        return e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv)
@example(["lattice", "Z/\u00b2", "Z/4"])  # str.isdigit takes the superscript two, int() does not
@example(["lattice", "Z/4", "Z/" + "9" * 5000])  # more digits than int() converts
@example(["count", "bell", "12"])  # the largest n the bound allows: 4,213,597 partitions
def test_every_argv_keeps_the_exit_code_contract(argv):
    with mock.patch.dict(os.environ, {"RINGLAT_MAX_ORDER": "64"}):
        assert _exit_code(argv) in (0, 1, 2, 3)
