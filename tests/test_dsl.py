import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import dsl
from ringlat import rings as rg
from ringlat.errors import ParseError, PreconditionError, SizeLimitError

# every entry is in printer-normal form, so printing must reproduce it exactly
CORPUS = [
    "Z/4",
    "GF(2)",
    "GF(2^3)",
    "Z/2 x Z/2 x Z/3",
    "Z/2 x (Z/2 x Z/2)",
    "Z/12/(4)",
    "(Z/8/(4))/(2)",
    "Z/2[t]/(t^2)",
    "(Z/2[t]/(t^2))[x]/(x^2-t, x*t)",
    "GF(3)[y]/(y^2+1)",
    "idealize(Z/2, ())",
    "idealize(Z/4, (2) + ())",
    "(Z/4 x Z/4)[t]/(t^2)",
    "Z/9/(-3)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_on_corpus(text):
    tree = dsl.parse(text)
    printed = dsl.print_expr(tree)
    assert printed == text
    assert dsl.parse(printed) == tree
    # a NamedTuple equals any tuple of equal values; repr names every class
    assert repr(dsl.parse(printed)) == repr(tree)


_names = st.sampled_from(["t", "u", "s", "y"])
_factor = st.one_of(
    st.builds(dsl.IntF, st.integers(min_value=0, max_value=30)),
    st.builds(dsl.NameF, _names, st.integers(min_value=1, max_value=4)),
)
_term = st.builds(
    dsl.Term, st.sampled_from([1, -1]), st.lists(_factor, min_size=1, max_size=3).map(tuple)
)
_poly = st.builds(dsl.Poly, st.lists(_term, min_size=1, max_size=3).map(tuple))
_polys = st.lists(_poly, min_size=1, max_size=2).map(tuple)
_cyclic = st.lists(_poly, min_size=0, max_size=2).map(tuple)
_leaf = st.one_of(
    st.builds(dsl.ZModE, st.integers(min_value=2, max_value=64)),
    st.builds(dsl.GFE, st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3)),
)


def _extend(children):
    return st.one_of(
        st.builds(dsl.ProductE, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(dsl.PolyQuotE, children, _names, _polys),
        st.builds(dsl.QuotE, children, _polys),
        st.builds(dsl.IdealizeE, children, st.lists(_cyclic, min_size=1, max_size=2).map(tuple)),
    )


@given(st.recursive(_leaf, _extend, max_leaves=6))
@settings(max_examples=150, deadline=None)
def test_round_trip_on_random_trees(tree):
    assert dsl.parse(dsl.print_expr(tree)) == tree
    assert repr(dsl.parse(dsl.print_expr(tree))) == repr(tree)


@pytest.mark.parametrize("text, order", [
    ("Z/4096", 4096), ("GF(2^12)", 4096), ("Z/2 x (GF(3) x Z/4)", 24), ("Z/64 x Z/128", 8192),
    # build refuses these, and the refusal is left to it
    ("Z/1", None), ("Z/5000", None), ("GF(6^2)", None), ("GF(2^13)", None), ("Z/1 x Z/4096", None),
    # suffix constructions: the order is known only once the ring is built
    ("Z/2[t]/(t^12, t)", None), ("Z/4/(2)", None), ("idealize(Z/2, ())", None), ("Z/2 x Z/4/(2)", None),
    # R[t]/(f) with the modulus alone is free of rank deg f over R
    ("Z/2[t]/(t^12)", 4096), ("Z/2[t]/(t^13)", 8192), ("Z/4[t]/(t^3+2*t-1)", 64), ("Z/2[t]/(t)", 2),
    ("(Z/3 x GF(2^2))[t]/(t^2+t)", 144), ("(Z/2[t]/(t^2))[x]/(x^3+1)", 64), ("Z/9[t]/(t^2 + 3)", 81),
    ("Z/2[t]/(t^2 + t^3)", 8),
    # the rule is exact or silent: built as before, and refused there if at all
    ("Z/2[t]/(t^14)", None), ("Z/2[t]/(t^99999999999)", None), ("Z/1[t]/(t^2)", None),
    ("Z/2[t]/(2*t^3)", None), ("Z/2[t]/(-t^3)", None), ("Z/2[t]/(t*t^2)", None), ("Z/2[t]/(1)", None),
    ("Z/2[t]/(t^3 + t^3)", None), ("Z/2[t]/(t^3 + t*t^2)", None), ("Z/4/(2)[t]/(t^2)", None),
    ("(Z/2[t]/(t^2))[x]/(x^2 + t)", None), ("Z/2[t]/(t^2 + x)", None),
])
def test_exact_order(text, order):
    assert dsl.exact_order(dsl.parse(text)) == order


def _workload_ring_expressions():
    """Every ring expression the benchmark's three workloads pass to the CLI."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    queries = workloads.mix_pool() + workloads.queries("structure-mid") + workloads.queries("lattice-large")
    exprs = set()
    for q in queries:
        if q[0] in ("lattice", "classify", "closures"):
            exprs.update(q[1:3])
        elif q[0] in ("crt", "idealize"):
            exprs.add(q[1])
        elif q[:2] == ["count", "exal"]:
            exprs.add(q[2])
    return sorted(exprs)


def test_exact_order_is_the_built_order_on_the_workload_rings():
    exact = 0
    for text in _workload_ring_expressions():
        order = dsl.exact_order(dsl.parse(text))
        if order is not None:
            exact += 1
            assert order == dsl.build_text(text).ring.order, text
    assert exact >= 70


def test_build_quotient_collapses(z4, is_isomorphic):
    assert is_isomorphic(dsl.build_text("Z/12/(4)").ring, z4) is not None


def test_build_field(f4, is_isomorphic):
    assert is_isomorphic(dsl.build_text("GF(2^2)").ring, f4) is not None


def test_build_idealization_of_free_summand(f2_eps, is_isomorphic):
    res = dsl.build_text("idealize(Z/2, ())")
    assert res.ring.order == 4
    assert is_isomorphic(res.ring, f2_eps) is not None


def test_build_bound_names_satisfy_relations():
    res = dsl.build_text("(Z/2[t]/(t^2))[x]/(x^2-t, x*t)")
    ring, t, x = res.ring, res.names["t"], res.names["x"]
    assert ring.order == 8
    assert ring.power(t, 2) == ring.zero
    assert ring.power(x, 2) == t
    assert int(ring.mul[x, t]) == ring.zero


def test_negative_literals_reduce(f3, is_isomorphic):
    assert is_isomorphic(dsl.build_text("Z/9/(-3)").ring, f3) is not None


def test_products_clear_names():
    with pytest.raises(PreconditionError, match="unknown name 't'"):
        dsl.build_text("(Z/4[t]/(t^2) x Z/2)/(t)")


@pytest.mark.parametrize("text, where", [
    ("Z/4/(y)", "ideal generator"),
    ("idealize(Z/4, (y))", "module spec"),
    ("Z/4[t]/(t^2 + y*t)", "coefficient of t"),
])
def test_unknown_name_says_where(text, where):
    with pytest.raises(PreconditionError, match=f"^unknown name 'y' in {where}$"):
        dsl.build_text(text)


def test_unexpected_character_position():
    with pytest.raises(ParseError) as exc:
        dsl.parse("Z/2[t]/(t@)")
    assert exc.value.line == 1
    assert exc.value.column == 10
    assert "unexpected character '@'" in str(exc.value)


def test_unclosed_paren_reports_end_of_input():
    with pytest.raises(ParseError, match=r"expected '\)', found 'end of input'"):
        dsl.parse("Z/2[t]/(t^2")


def test_missing_ring_expression():
    with pytest.raises(ParseError, match="expected a ring expression"):
        dsl.parse("Z/2 x ")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing input"):
        dsl.parse("Z/4 )")


def test_input_size_limit():
    with pytest.raises(SizeLimitError):
        dsl.parse("Z/1" + "0" * dsl.MAX_INPUT)


def test_parse_module_spec_groups():
    cyclics = dsl.parse_groups("(2) + ()", "+", "module spec")
    assert len(cyclics) == 2
    assert cyclics[1] == ()
    assert len(cyclics[0]) == 1


def test_parse_module_spec_rejects_stray_tokens():
    with pytest.raises(ParseError, match=r"expected '\+' or end of module spec"):
        dsl.parse_groups("(2) (3)", "+", "module spec")


def test_parse_poly_list_and_eval(z12):
    groups = dsl.parse_groups("(4, 3); (); (2*3)", ";", "ideal list")
    assert [[dsl.eval_element(dsl.BuildResult(z12), p) for p in g] for g in groups] == [[4, 3], [], [6]]


def test_parse_poly_list_rejects_missing_comma():
    for text, message in [
        ("(4 3)", "expected '\\)', found '3'"),  # no comma inside a group
        ("(4) (3)", "expected ';' or end of ideal list"),  # no separator between groups
        ("(4) + (3)", "expected ';' or end of ideal list"),  # the module separator
        ("4; (3)", "expected '\\(', found '4'"),
        ("(4);", "expected '\\(', found 'end of input'"),
    ]:
        with pytest.raises(ParseError, match=message):
            dsl.parse_groups(text, ";", "ideal list")


def test_group_separator_is_not_a_ring_expression():
    with pytest.raises(ParseError, match="trailing input ';'"):
        dsl.parse("Z/4; Z/2")


def test_suffix_chain_peels_constructions():
    top = dsl.parse("Z/4[t]/(t^2)/(2)")
    base = dsl.parse("Z/4")
    chain = dsl.suffix_chain(top, base)
    assert [type(e).__name__ for e in chain] == ["PolyQuotE", "QuotE"]
    assert dsl.suffix_chain(top, top) == []
    assert dsl.suffix_chain(dsl.parse("Z/2 x Z/2"), base) is None


def test_build_step_returns_the_embedding():
    base = dsl.build(dsl.parse("Z/4"))
    res, hom = dsl.build_step(base, dsl.parse("Z/4[t]/(t^2)"))
    assert res.ring.order == 16
    assert hom.source is base.ring
    assert hom.target is res.ring
    assert res.ring.power(res.names["t"], 2) == res.ring.zero


@pytest.mark.parametrize("shape", [
    lambda k: "(" * k + "Z/2" + ")" * k,
    lambda k: "idealize(" * k + "Z/2" + ", ())" * k,
    lambda k: "Z/2" + "/(0)" * k,
    lambda k: "(" * (k - 1) + "Z/2" + " x Z/2)" * (k - 1) + " x Z/2",
], ids=["groups", "idealizes", "suffixes", "products"])
def test_nesting_is_bounded_by_max_nesting(shape):
    # each shape nests k levels: the parser recursion, or the height of the tree
    k = dsl.MAX_NESTING
    assert dsl.parse(dsl.print_expr(dsl.parse(shape(k)))) == dsl.parse(shape(k))
    with pytest.raises(ParseError, match=f"nested deeper than {k} levels"):
        dsl.parse(shape(k + 1))


@pytest.mark.parametrize("text", [
    "Z/2" + "[t]/(t^2)" * 4, "Z/2" + "[t]/(t^2)" * 40, "Z/256 x Z/256", " x ".join(["Z/4096"] * 1200),
    "Z/2[t]/(t^13) x Z/2[t]/(t^13)",
])
def test_exact_order_stops_past_the_order_ceiling(text):
    # Z/2[t]/(t^2)[t]/(t^2)... squares the order per suffix; no bound admits
    # an order past the ceiling, so the order is not formed
    assert dsl.exact_order(dsl.parse(text)) is None
    assert dsl.exact_order(dsl.parse("Z/2" + "[t]/(t^2)" * 3)) == 256


def test_build_factors_refuses_before_the_factor_that_passes_the_bound(monkeypatch):
    built = []
    real = dsl.build

    def counted(expr):
        built.append(expr)
        return real(expr)

    monkeypatch.setattr(dsl, "build", counted)
    # the exact orders refuse before any factor is built
    with pytest.raises(SizeLimitError, match="product order exceeds the arithmetic bound"):
        dsl.build_factors(dsl.parse("Z/4096 x Z/4096 x Z/4096"))
    assert built == []
    # an order the expression does not fix counts as 2 until the factor is
    # taken; the second Z/64/(0) is the first one's ring, not built again
    with pytest.raises(SizeLimitError, match="product order exceeds the arithmetic bound"):
        dsl.build_factors(dsl.parse("Z/64/(0) x Z/64/(0) x Z/2"))
    assert built.count(dsl.parse("Z/64/(0)")) == 1 and dsl.parse("Z/2") not in built
    assert [r.order for r in dsl.build_factors(dsl.parse("Z/4/(2) x Z/2048"))] == [2, 2048]


def test_build_factors_builds_each_distinct_factor_once(monkeypatch):
    built = []
    real = dsl.build

    def counted(expr):
        built.append(expr)
        return real(expr)

    monkeypatch.setattr(dsl, "build", counted)
    z3 = dsl.parse("Z/3")
    factors = dsl.build_factors(dsl.parse("Z/3 x Z/2 x Z/3 x (Z/2)"))
    assert built == [z3, dsl.parse("Z/2")]
    assert factors[0] is factors[2] and factors[1] is factors[3]
    # a known expression is taken as given
    base = rg.make_zmod(3)
    built.clear()
    factors = dsl.build_factors(dsl.parse("Z/3 x Z/3 x Z/9"), [(z3, base)])
    assert built == [dsl.parse("Z/9")] and factors[:2] == (base, base)
