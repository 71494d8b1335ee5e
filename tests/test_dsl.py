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


def test_build_quotient_collapses(z4):
    assert rg.is_isomorphic(dsl.build_text("Z/12/(4)").ring, z4) is not None


def test_build_field(f4):
    assert rg.is_isomorphic(dsl.build_text("GF(2^2)").ring, f4) is not None


def test_build_idealization_of_free_summand(f2_eps):
    res = dsl.build_text("idealize(Z/2, ())")
    assert res.ring.order == 4
    assert rg.is_isomorphic(res.ring, f2_eps) is not None


def test_build_bound_names_satisfy_relations():
    res = dsl.build_text("(Z/2[t]/(t^2))[x]/(x^2-t, x*t)")
    ring, t, x = res.ring, res.names["t"], res.names["x"]
    assert ring.order == 8
    assert ring.power(t, 2) == ring.zero
    assert ring.power(x, 2) == t
    assert int(ring.mul[x, t]) == ring.zero


def test_negative_literals_reduce(f3):
    assert rg.is_isomorphic(dsl.build_text("Z/9/(-3)").ring, f3) is not None


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
