import json
from unittest import mock

import pytest

from ringlat import cli, dsl
from ringlat import modules as md
from ringlat import rings as rg


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def test_count_bell(capsys):
    code, out, _ = run(capsys, ["count", "bell", "4"])
    assert code == 0
    assert out.strip() == "15"


def test_count_stirling(capsys):
    code, out, _ = run(capsys, ["count", "stirling", "5", "3"])
    assert code == 0
    assert out.strip() == "25"


def test_count_exal(capsys):
    code, out, _ = run(capsys, ["count", "exal", "Z/4", "2", "3"])
    assert code == 0
    assert out.strip() == "3"


def test_count_usage_error(capsys):
    code, _, err = run(capsys, ["count", "bell"])
    assert code == 2
    assert "usage: count bell" in err


@pytest.mark.parametrize("argv", [["bell", "abc"], ["stirling", "3", "x"], ["exal", "Z/4", "2", "q"]])
def test_count_non_integer_argument(capsys, argv):
    code, out, err = run(capsys, ["count", *argv])
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_count_exal_huge_power(capsys):
    # refused before the idempotent rows are enumerated, which would recurse p deep
    code, out, err = run(capsys, ["count", "exal", "Z/4", "99999999", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith("size limit:")


@pytest.mark.parametrize("argv, code", [
    (["lattice", "Z/\u00b2", "Z/4"], 2),
    (["lattice", "Z/4", "Z/" + "9" * 5000], 3),
    (["lattice", "Z/4", "Z/4[t]/(t^2 + " + "9" * 5000 + ")"], 3),
    (["count", "bell", "9" * 5000], 3),
])
def test_generated_input_regressions(capsys, argv, code):
    assert run(capsys, argv)[0] == code


def test_count_at_the_partition_bound(capsys):
    assert run(capsys, ["count", "bell", "12"])[1].strip() == "4213597"
    assert run(capsys, ["count", "stirling", "12", "5"])[1].strip() == "1379400"


def test_lattice_diagonal(capsys):
    code, doc = run_json(capsys, ["lattice", "Z/4", "Z/4 x Z/4", "--embed", "diagonal"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["count"] == 3


def test_lattice_dot_output(capsys, tmp_path):
    target = tmp_path / "hasse.dot"
    code, doc = run_json(capsys, ["lattice", "Z/4", "Z/4 x Z/4", "--dot", str(target)])
    assert code == 0
    assert doc["count"] == 3
    assert "digraph" in target.read_text()


def test_classify_inert(capsys):
    code, doc = run_json(capsys, ["classify", "GF(2)", "GF(2^2)"])
    assert code == 0
    assert doc["minimal"] is True
    assert doc["classification"]["class"] == "inert"
    assert doc["classification"]["residue_degree"] == 2
    assert doc["predicates"]["pointwise_minimal"] is True
    assert doc["predicates"]["subintegral"] is False


def test_closures_diagonal_square(capsys):
    code, doc = run_json(capsys, ["closures", "Z/4", "Z/4 x Z/4"])
    assert code == 0
    assert doc["kind"] == "canonical_decomposition"
    assert doc["base"] == [0, 5, 10, 15]
    assert doc["seminormalization"] == [0, 2, 5, 7, 8, 10, 13, 15]
    assert len(doc["t_closure"]) == 16
    assert len(doc["top"]) == 16


def test_crt_three_ideals(capsys):
    code, doc = run_json(capsys, ["crt", "Z/12", "--ideals", "(4);(3);(3)"])
    assert code == 0
    assert doc["quotient_orders"] == [4, 3, 3]
    assert doc["conductor"] == [0, 3, 6, 9]
    assert doc["crt_isomorphism"] is False
    assert doc["minimal"] == {"minimal": True, "witness_pair": [1, 2]}
    assert doc["reduction"]["dropped_factors"] == [0]
    assert doc["reduction"]["base_order"] == 3


def test_crt_two_ideals(capsys):
    code, doc = run_json(capsys, ["crt", "Z/8", "--ideals", "(4);(0)"])
    assert code == 0
    assert doc["conductor"] == [0, 4]
    assert doc["minimal"] == {
        "minimal": False,
        "quotient_is_field": False,
        "predicted_count": 3,
    }
    assert doc["reduction"] == {
        "crt_isomorphism": False,
        "dropped_factors": [],
        "base_order": 4,
    }


def test_idealize_report(capsys):
    code, doc = run_json(capsys, ["idealize", "Z/4", "--module", "(2) + ()"])
    assert code == 0
    assert doc == {
        "schema": 1,
        "kind": "idealize",
        "ring": "Z/4",
        "module_order": 8,
        "idealization_order": 32,
        "nu": 8,
        "module_length": 3,
        "cyclic": False,
        "uniserial": False,
        "faithful": True,
        "lattice_bijection": True,
        "extension_lattice_count": 8,
    }


def test_verify_suite(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "s4"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["suite"] == "s4"
    assert all(r["passed"] for r in doc["results"])
    assert all({"name", "passed", "detail"} <= set(r) for r in doc["results"])


def test_explicit_embedding(capsys):
    code, doc = run_json(capsys, ["lattice", "Z/2", "Z/2 x Z/2", "--embed", "explicit:0,3"])
    assert code == 0
    assert doc["count"] == 2


def test_exit_code_no_embedding(capsys):
    code, _, err = run(capsys, ["classify", "Z/6", "GF(2^2)"])
    assert code == 2
    assert "cannot infer an embedding" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, ["lattice", "Z/2[t]/(t@)", "Z/4"])
    assert code == 2
    assert "unexpected character" in err


def test_exit_code_bad_explicit_length(capsys):
    code, _, err = run(capsys, ["lattice", "Z/2", "Z/2 x Z/2", "--embed", "explicit:0,1,2"])
    assert code == 2
    assert "3 images for a base of order 2" in err


def test_exit_code_unknown_embedding(capsys):
    code, _, err = run(capsys, ["lattice", "Z/2", "Z/2 x Z/2", "--embed", "wat"])
    assert code == 2
    assert "unknown embedding" in err


def test_exit_code_first_factor_needs_product(capsys):
    code, _, err = run(capsys, ["lattice", "Z/2", "Z/4", "--embed", "first-factor"])
    assert code == 2
    assert "no compatible identity" in err


@pytest.mark.parametrize("argv", [
    # each top is also over the size bound: the shape and the factors are
    # checked before the product or the field is built
    ["lattice", "Z/2", "Z/64 x Z/128", "--embed", "diagonal"],
    ["lattice", "Z/2", "GF(2^13)", "--embed", "first-factor"],
    ["lattice", "Z/2", "GF(2^13)", "--embed", "diagonal"],
    ["lattice", "Z/2 x Z/2", "Z/2 x Z/2 x Z/4", "--embed", "first-factor"],
    ["crt", "Z/12", "--ideals", "4;(3)"],
    ["crt", "Z/12", "--ideals", "(4);"],
])
def test_exit_code_malformed_before_oversize(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert (code, out) == (2, "")


def test_product_embeddings_map_component_k_to_base_component_min_k_p():
    # (a, b) in Z/3 x Z/3 has index 3a + b; its image (a, b, b) in (Z/3)^3 has 9a + 4b
    first = cli.resolve_extension("Z/3 x Z/3", "Z/3 x Z/3 x Z/3", "first-factor")
    assert first.embed.map.tolist() == [9 * a + 4 * b for a in range(3) for b in range(3)]
    for embed in ("diagonal", None):
        assert cli.resolve_extension("Z/3", "Z/3 x Z/3 x Z/3", embed).embed.map.tolist() == [0, 13, 26]


@pytest.mark.parametrize("argv", [
    ["lattice", "Z/2", "GF(2^2) x Z/2[t]/(t^2)"],
    ["lattice", "Z/2 x Z/2", "Z/2 x Z/2 x Z/2", "--embed", "first-factor"],
])
def test_each_ring_is_built_once(capsys, argv):
    built, multiplied = [], []
    real_build, real_product = dsl.build, rg.product

    def build(expr):
        built.append(expr)  # kept alive, so no two ids of this list coincide
        return real_build(expr)

    def product(factors):
        multiplied.append(tuple(factors))
        return real_product(factors)

    with mock.patch.object(dsl, "build", build), mock.patch.object(dsl, "product", product), \
            mock.patch.object(rg, "product", product):
        code, _, _ = run(capsys, argv)
    assert code == 0
    assert len({id(e) for e in built}) == len(built)
    assert len({tuple(map(id, f)) for f in multiplied}) == len(multiplied)


def test_exit_code_composite_field_order(capsys):
    code, _, err = run(capsys, ["classify", "Z/6", "GF(4)"])
    assert code == 2
    assert "invalid characteristic" in err


def test_exit_code_size_limit(capsys):
    code, _, err = run(capsys, ["lattice", "GF(2)", "GF(2^44)"])
    assert code == 3
    assert "size limit" in err


@pytest.mark.parametrize("top", ["GF(1000000000000000000000000000057)", "GF(2^99999999999)"])
def test_exit_code_size_limit_huge_field(capsys, top):
    # bounded before the primality test and before forming p^k
    code, _, err = run(capsys, ["lattice", "Z/2", top])
    assert code == 3
    assert "size limit" in err


@pytest.mark.parametrize("top", ["Z/2[t]/(t^2, t^99999999999)", "Z/2[t]/(t^99999999999)"])
def test_exit_code_size_limit_huge_variable_exponent(capsys, top):
    # bounded before the coefficient list of degree + 1 entries is built
    code, _, err = run(capsys, ["lattice", "Z/2", top])
    assert code == 3
    assert "size limit" in err


def test_relation_of_higher_degree_than_the_modulus(capsys):
    code, data = run_json(capsys, ["lattice", "Z/2", "Z/2[t]/(t^2, t^5)"])
    assert code == 0
    assert data["top_order"] == 4


def test_huge_exponent_in_relation(capsys):
    # t^999999999999 = 0 in Z/2[t]/(t^2), so the second quotient is by zero
    code, data = run_json(capsys, ["lattice", "Z/2", "Z/2[t]/(t^2)/(t^999999999999)"])
    assert code == 0
    assert data["top_order"] == 4
    assert data["count"] == 2


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_exit_code_malformed_max_order(capsys, monkeypatch, value):
    monkeypatch.setenv("RINGLAT_MAX_ORDER", value)
    code, _, err = run(capsys, ["lattice", "Z/2", "Z/2 x Z/2"])
    assert code == 2
    assert "RINGLAT_MAX_ORDER" in err


def test_idealize_enumerates_the_submodule_lattice_once(capsys):
    with mock.patch.object(md, "submodules", wraps=md.submodules) as submodules:
        code, doc = run_json(capsys, ["idealize", "Z/4", "--module", "(2) + ()"])
    assert (code, doc["nu"], doc["lattice_bijection"]) == (0, 8, True)
    assert submodules.call_count == 1
