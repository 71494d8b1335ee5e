import argparse
import errno
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import cli, dsl
from ringlat import crt as cr
from ringlat import ideals as il
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


@pytest.mark.parametrize("argv,code", [
    (["bell", "0"], 2), (["stirling", "0", "0"], 2), (["stirling", "0", "1"], 2),
    (["stirling", "-3", "-5"], 2), (["stirling", "1", "0"], 0),
    (["bell", "13"], 3), (["stirling", "13", "5"], 3), (["stirling", "13", "14"], 3),
    (["stirling", "13", "-1"], 3), (["stirling", "12", "13"], 0),
])
def test_count_stirling_checks_n_before_p(capsys, argv, code):
    # every n < 1 is refused (exit 2) and every n > 12 is over the bound
    # (exit 3), whatever p is, as for bell
    got, out, err = run(capsys, ["count", *argv])
    assert got == code
    if code == 0:
        assert out.strip() == "0"
    else:
        assert not out
        assert ("nonempty" if code == 2 else "bound") in err


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


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} was called")
    return refuse


def test_a_crt_query_builds_no_product_table(capsys, monkeypatch):
    # the conductor, its ideal check and the injectivity check read the
    # quotients' tables; the top's tables are built only for crt.extension
    argv = ["crt", "Z/60", "--ideals", "(12);(10);(15)"]
    monkeypatch.setattr(rg, "_kronecker", _refuse("_kronecker"))
    code, out, _ = run(capsys, argv)
    expected = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
    want = expected[json.dumps(argv)]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"])
    assert json.loads(out)["top_order"] == 1800


@pytest.mark.parametrize("argv, generators", [
    (["crt", "Z/60", "--ideals", "(12);(10);(15)"], 3),
    (["crt", "Z/72", "--ideals", "(8);(12);(18)"], 3),
    (["classify", "Z/2", "GF(2^2)"], 2),
], ids=["crt Z/60", "crt Z/72", "classify F4 over F2"])
def test_the_conductor_reads_the_tops_generator_columns(capsys, monkeypatch, argv, generators):
    # r is in the conductor when r g lies in R for each additive generator g
    # of the top: one column per generator of each factor (Z/60 and its
    # quotients are cyclic, 1 and 2 generate F4), never one per element.
    # The strip whose columns are its rows is the add check of the image.
    strips, real = [], rg.product_table_rows

    def recorded(tables, rows, cols=None):
        # a strip without columns would read every element of the top
        top_order = math.prod(len(t) for t in tables)
        if cols is None:
            strips.append((top_order, top_order, False))
            return real(tables, rows)
        add_check = all(len(r) == len(c) and (r == c).all() for r, c in zip(rows, cols))
        strips.append((top_order, len(cols[0]), add_check))
        return real(tables, rows, cols)

    monkeypatch.setattr(il, "product_table_rows", recorded)
    code, _, _ = run(capsys, argv)
    assert code == 0
    membership = [width for _, width, add_check in strips if not add_check]
    assert membership and set(membership) == {generators}
    assert all(width < top_order for top_order, width, _ in strips)


def test_a_crt_top_past_the_bound_is_refused_before_anything_is_read(capsys, monkeypatch):
    # Z/72 x Z/90 has order 6480: refused before the embedding or a row of
    # the top is computed
    monkeypatch.setattr(rg, "_kronecker", _refuse("_kronecker"))
    monkeypatch.setattr(cr, "product_index", _refuse("product_index"))
    monkeypatch.setattr(il, "product_table_rows", _refuse("product_table_rows"))
    code, out, err = run(capsys, ["crt", "Z/360", "--ideals", "(72);(90)"])
    assert (code, out, err) == (3, "", "size limit: product order 6480 exceeds the arithmetic bound\n")


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


@pytest.mark.parametrize("image", [str(3 + (1 << 16)), str(3 + (1 << 32))])
def test_an_explicit_image_is_range_checked_before_it_is_narrowed(capsys, image):
    # 2^16 + 3 and 2^32 + 3 wrap to 3 in int16 and int32, a valid image of one
    code, out, err = run(capsys, ["lattice", "Z/2", "Z/2 x Z/2", "--embed", f"explicit:0,{image}"])
    assert (code, out, err) == (2, "", "error: hom table maps outside the target\n")


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


@pytest.mark.parametrize("argv, order", [
    (["lattice", "Z/2", "GF(2^12)"], 4096),
    (["classify", "Z/2", "GF(2^12)"], 4096),
    (["lattice", "Z/2", "Z/2 x GF(2^12)"], 8192),  # no factor is built either
])
def test_lattice_bound_refuses_a_field_before_building_it(capsys, monkeypatch, argv, order):
    def refuse(*args):
        raise AssertionError("GF(2^12) was built")

    monkeypatch.setattr(rg, "make_gf", refuse)
    monkeypatch.setattr(dsl, "make_gf", refuse)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"size limit: lattice enumeration bound exceeded for order {order}\n")


def test_a_product_of_copies_of_the_base_builds_one_field(capsys, monkeypatch):
    # each factor spelled like the base is the base ring: one make_gf call,
    # not four, and the output recorded for the benchmark query
    argv = ["lattice", "GF(2^2)", "GF(2^2) x GF(2^2) x GF(2^2)"]
    fields = []
    real = rg.make_gf

    def counted(p, k=1):
        fields.append((p, k))
        return real(p, k)

    monkeypatch.setattr(rg, "make_gf", counted)
    monkeypatch.setattr(dsl, "make_gf", counted)
    code, out, _ = run(capsys, argv)
    assert (code, fields) == (0, [(2, 2)])
    expected = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == expected[json.dumps(argv)]["sha256"]


@pytest.mark.parametrize("argv, digest", [
    # the top of an explicit embedding is built knowing the base
    (["lattice", "Z/4", "Z/4 x Z/4", "--embed", "explicit:0,5,10,15"],
     "c0efe8ffdcb17044fdae4cd2b05aacb7932095c8fadfb6182615c461d3ecbd54"),
    # the top factors of --embed first-factor know a product base's factors
    (["lattice", "Z/2 x Z/2", "Z/2 x Z/2 x Z/2", "--embed", "first-factor"],
     "f02f3bc10c48036499b296c7f4b1484da44b6b485398c1e88992504a96cf9a92"),
], ids=["explicit", "first-factor"])
def test_a_ring_the_base_built_is_not_built_again(capsys, monkeypatch, argv, digest):
    built = []
    real = rg.make_zmod

    def counted(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(rg, "make_zmod", counted)
    monkeypatch.setattr(dsl, "make_zmod", counted)
    code, out, _ = run(capsys, argv)
    assert (code, len(built), hashlib.sha256(out.encode()).hexdigest()) == (0, 1, digest)


def _closures_queries():
    """Every closures query of the three benchmark workloads, any seed."""
    workloads = _workloads()
    return [q for q in workloads.LATTICE_LARGE + workloads.STRUCTURE_MID + workloads.mix_pool()
            if q[0] == "closures"]


def test_closures_queries_match_their_recorded_digests(capsys):
    expected = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
    queries = _closures_queries()
    assert len(queries) > 60
    for argv in queries:
        code, out, _ = run(capsys, argv)
        want = expected[json.dumps(argv)]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"]), argv


def test_closures_builds_no_ring_or_hom_past_the_extension(capsys, monkeypatch):
    # the chain invariants are checked on the top's tables and the node
    # masks: once the extension is resolved, no ring or hom is constructed
    resolved, late = [], []
    real_resolve = cli.resolve_extension

    def resolve(*args, **kwargs):
        ext = real_resolve(*args, **kwargs)
        resolved.append(ext)
        return ext

    for cls in (rg.FiniteRing, rg.RingHom):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            if resolved:
                late.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    monkeypatch.setattr(cli, "resolve_extension", resolve)
    for argv in _closures_queries():
        resolved.clear()
        assert run(capsys, argv)[0] == 0 and len(resolved) == 1, argv
        assert late == [], argv


@pytest.mark.parametrize("argv, order", [
    # a top built over the base by suffixes was built in full (0.8 s, 223 MB)
    (["lattice", "Z/2", "Z/2[t]/(t^12)"], 4096),
    (["classify", "Z/2", "Z/2[t]/(t^12)"], 4096),
    (["lattice", "Z/4", "Z/4[t]/(t^6 + 2*t + 1)"], 4096),
    (["lattice", "Z/2", "Z/2[t]/(t^13)"], 8192),  # gave the arithmetic-bound line
])
def test_lattice_bound_refuses_a_polynomial_top_before_building_it(capsys, monkeypatch, argv, order):
    def refuse(*args, **kwargs):
        raise AssertionError("the polynomial quotient was built")

    for module in (dsl, rg):
        monkeypatch.setattr(module, "poly_quotient", refuse)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"size limit: lattice enumeration bound exceeded for order {order}\n")


@pytest.mark.parametrize("argv", [
    # each exited 3 after building the order-4096 base (0.8-1.6 s, 223-415 MB)
    ["lattice", "Z/4096", "Z/4096"],
    ["classify", "GF(2^12)", "GF(2^12) x Z/2"],
    ["lattice", "GF(2^12)", "GF(2^12)"],
    # the factors cannot be checked against a base that is not built: exited 2
    ["lattice", "Z/4096", "Z/4096 x Z/2", "--embed", "diagonal"],
])
def test_lattice_bound_refuses_an_exact_order_base_before_building_it(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the base was built")

    for module in (dsl, rg):
        monkeypatch.setattr(module, "make_zmod", refuse)
        monkeypatch.setattr(module, "make_gf", refuse)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", "size limit: lattice enumeration bound exceeded for order 4096\n")


@pytest.mark.parametrize("argv", [
    ["lattice", "Z/4", "Z/4096"],  # no embedding to infer: exited 2 after building Z/4096
    ["lattice", "Z/2", "Z/2 x (Z/4 x Z/128)"],
    ["classify", "Z/2", "Z/64 x Z/128"],  # beyond the arithmetic bound too
])
def test_lattice_bound_refuses_an_exact_order_top_before_building_it(capsys, monkeypatch, argv):
    real_zmod, real_product = rg.make_zmod, rg.product

    def small_zmod(n):
        assert n <= 128, f"Z/{n} was built"
        return real_zmod(n)

    def small_product(factors):
        order = math.prod(f.order for f in factors)
        assert order <= 512, f"a product of order {order} was built"
        return real_product(factors)

    monkeypatch.setattr(dsl, "make_zmod", small_zmod)
    for module in (dsl, rg):
        monkeypatch.setattr(module, "product", small_product)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("size limit: lattice enumeration bound exceeded for order ")


@pytest.mark.parametrize("argv", [
    ["closures", "Z/2", "Z/2 x GF(2^9)"],  # closures enumerate no lattice
    ["lattice", "Z/2", "Z/2[t]/(t^10, t)"],  # the expression does not fix the order
])
def test_no_early_refusal_without_a_lattice_of_a_fixed_order(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["schema"] == 1


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


def test_idealize_builds_the_idealization_once(capsys):
    with mock.patch.object(md, "idealize", wraps=md.idealize) as idealize:
        code, doc = run_json(capsys, ["idealize", "Z/4", "--module", "(2) + ()"])
    assert (code, doc["idealization_order"], doc["extension_lattice_count"]) == (0, 32, 8)
    assert idealize.call_count == 1


def test_idealize_reports_the_submodule_bound_first(capsys):
    # M = (Z/2)^10 has 1024 elements and Z/32 (+) M has 32768
    code, _, err = run(capsys, ["idealize", "Z/32", "--module", " + ".join(["(2)"] * 10)])
    assert code == 3
    assert "submodule enumeration bound exceeded for order 1024" in err


_ONE_QUERY_PER_SUBCOMMAND = [
    ["lattice", "Z/2", "Z/2 x Z/2 x Z/2"],
    ["classify", "Z/2", "GF(2^2)"],
    ["closures", "Z/4", "Z/4 x Z/4"],
    ["crt", "Z/12", "--ideals", "(4);(3)"],
    ["idealize", "Z/4", "--module", "(2)"],
    ["count", "exal", "Z/4", "2", "3"],
]


@pytest.mark.parametrize("argv", _ONE_QUERY_PER_SUBCOMMAND, ids=lambda argv: argv[0])
def test_query_leaves_numpy_ma_unimported(argv):
    # a plain np.unique imports numpy.ma on its first call, about 14 ms of a process
    code = ("import contextlib, io, sys\nfrom ringlat import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr


# Runs one CLI query under an address-space budget of 512 MiB of data, so
# that any attempt to build a table of the refused order (an order-40000
# table is 3 GB) raises MemoryError instead of passing for a refusal; the
# budget is checked to bite first.
_BUDGETED_QUERY = """
import resource, sys
import numpy as np
from ringlat import cli
resource.setrlimit(resource.RLIMIT_DATA, (512 << 20, 512 << 20))
try:
    np.empty(40000 * 40000, dtype=np.int16)
except MemoryError:
    pass
else:
    sys.exit("the allocation budget does not hold")
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("top", ["Z/40000", "Z/200 x Z/200", "GF(2^16)"])
def test_an_order_above_the_int16_ceiling_is_refused_before_any_table(top):
    # element indices are int16, so RINGLAT_MAX_ORDER cannot lift the bound past 2^15
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "RINGLAT_MAX_ORDER": "100000"}
    out = subprocess.run([sys.executable, "-c", _BUDGETED_QUERY, "closures", "Z/2", top],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 3, out.stderr
    assert out.stdout == "" and out.stderr.startswith("size limit: ") and "bound" in out.stderr


_TOWER = "Z/2" + "[t]/(t^2)" * 1500  # Z/2[t]/(t^2)[t]/(t^2)...: each suffix squares the order
_NESTED = "error: expression nested deeper than 100 levels"
_PRODUCT = "size limit: product order exceeds the arithmetic bound"
_CUBE = "Z/4096 x Z/4096 x Z/4096"


@pytest.mark.parametrize("argv, code, message", [
    # the parser, build and exact_order recursed once per level: RecursionError, exit 1
    (["closures", "Z/2", "(" * 400 + "Z/2" + ")" * 400], 2, _NESTED),
    (["closures", "Z/2", "idealize(" * 400 + "Z/2" + ", ())" * 400], 2, _NESTED),
    (["closures", "Z/3", _TOWER], 2, _NESTED),
    (["lattice", "Z/2", _TOWER], 2, _NESTED),
    (["lattice", "Z/2", "Z/2" + "/(0)" * 101], 2, _NESTED),
    # exact_order formed |Z/2|^(2^14), too long to print: ValueError, exit 1
    (["lattice", "Z/2", "Z/2" + "[t]/(t^2)" * 14], 3, "size limit: order 65536 exceeds the arithmetic bound"),
    (["classify", "Z/2", "Z/2" + "[t]/(t^2)" * 29], 3, "size limit: order 65536 exceeds the arithmetic bound"),
    (["lattice", "Z/2", " x ".join(["Z/4096"] * 1200)], 3, _PRODUCT),
    # poly_quotient formed 4096^4096 for its message: ValueError, exit 1
    (["closures", "Z/2", "Z/4096[t]/(t^4096)"], 3, "size limit: order 4096^4096 exceeds the arithmetic bound"),
    # every factor was built before the product was refused: 239 MB, and
    # killed for memory with 1,200 factors
    (["closures", "Z/2", " x ".join(["Z/4096"] * 1200)], 3, _PRODUCT),
    (["closures", "Z/2", _CUBE], 3, _PRODUCT),
    (["crt", _CUBE, "--ideals", "(0);(1)"], 3, _PRODUCT),
    (["idealize", _CUBE, "--module", "()"], 3, _PRODUCT),
    (["count", "exal", _CUBE, "1", "1"], 3, _PRODUCT),
], ids=["parens", "idealize", "closures-tower", "lattice-tower", "quotients", "tower-14", "tower-29",
        "lattice-1200", "degree-4096", "closures-1200", "closures", "crt", "idealize-product", "exal"])
def test_deep_or_huge_expressions_are_refused_in_one_line(argv, code, message):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _BUDGETED_QUERY, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (out.returncode, out.stdout) == (code, ""), out.stderr
    assert out.stderr.splitlines() == [out.stderr.strip()] and out.stderr.startswith(message)


def test_a_product_over_the_bound_builds_no_factor():
    # one Z/4096 alone takes the peak past 100 MB; the parent's query took 239 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    # VmHWM, as ru_maxrss keeps the high-water mark of the process that
    # started the child across exec
    code = ("import re, sys\nfrom ringlat import cli\ncode = cli.main(sys.argv[1:])\n"
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n")
    out = subprocess.run([sys.executable, "-c", code, "closures", "Z/2", _CUBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    code, peak_kib = map(int, out.stdout.split())
    assert code == 3 and peak_kib < 60 * 1024


def test_the_order_ceiling_is_the_element_dtype(monkeypatch):
    from ringlat import config

    assert config.ORDER_CEILING == np.iinfo(rg.ELEMENT).max + 1 == 1 << 15
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "100000")
    assert config.arith_limit() == config.ORDER_CEILING
    assert config.lattice_limit() == 100000
    monkeypatch.setenv("RINGLAT_MAX_ORDER", "20000")
    assert config.arith_limit() == 20000


def _workloads():
    """bench/workloads.py, which is not a package module."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_lattice_workload_leaves_numpy_ma_unimported():
    # the benchmark's lattice-large queries and one query per subcommand, one
    # after another in one fresh interpreter, as a benchmark pass runs them
    queries = _workloads().queries("lattice-large") + _ONE_QUERY_PER_SUBCOMMAND
    code = ("import contextlib, io, json, sys\nfrom ringlat import cli\ncodes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n        codes.append(cli.main(argv))\n"
            "print(set(codes), 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(queries)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.stdout.split() == ["{0}", "False"], out.stderr


def run_any(capsys, argv):
    """run, with an argparse exit (an error, or --help) taken as its code."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_runs(argvs, **env):
    """(exit code, stdout) of each argv, each run by `python -m ringlat.cli`
    in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = [subprocess.run([sys.executable, "-m", "ringlat.cli", *argv], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src, **env}, timeout=120)
            for argv in argvs]
    return [(p.returncode, p.stdout) for p in done]


def test_repeated_calls_carry_no_state(capsys, tmp_path):
    # one process, one parser: each call answers as a fresh process does
    dot, fresh_dot = tmp_path / "hasse.dot", tmp_path / "fresh.dot"
    lattice = ["lattice", "Z/4", "Z/4 x Z/4"]
    calls = [
        ["count", "bell", "4"],
        [*lattice, "--dot", str(dot)],
        ["count", "bell"],
        ["lattice", "Z/2"],
        lattice,
        ["lattice", "Z/2", "Z/2 x Z/2", "--embed", "explicit:0,1"],
        ["lattice", "Z/2", "Z/2 x Z/2"],
        ["classify", "GF(2)", "GF(2^2)"],
        ["verify", "--suite", "s4"],
        ["closures", "Z/4", "Z/4 x Z/4"],
        ["count", "bell", "4"],
        ["crt", "Z/12", "--ideals", "(4);(3)"],
        ["idealize", "Z/4", "--module", "(2) + ()"],
        ["count", "bell"],
    ]
    distinct = list(dict.fromkeys(map(tuple, calls)))
    fresh = dict(zip(distinct, fresh_runs(
        [[str(fresh_dot) if a == str(dot) else a for a in argv] for argv in distinct])))
    assert [code for code, _ in fresh.values()] == [0, 0, 2, 2, 0, 2, 0, 0, 0, 0, 0, 0]

    results = []
    for argv in calls:
        code, out, err = run_any(capsys, argv)
        results.append((code, out))
        if argv[0] == "count" and code == 2:
            assert "usage: count bell" in err
        # written by the --dot call alone, not again by the same query without it
        assert dot.exists() == (str(dot) in argv), argv
        if dot.exists():
            assert dot.read_text() == fresh_dot.read_text()
            dot.unlink()
    assert results == [fresh[tuple(argv)] for argv in calls]
    assert results[0] == (0, "15\n")
    assert results[3] == (2, "")


def test_main_builds_no_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built after import")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    for argv in (["lattice", "Z/2", "Z/2 x Z/2"], ["classify", "GF(2)", "GF(2^2)"],
                 ["closures", "Z/4", "Z/4 x Z/4"], ["crt", "Z/12", "--ideals", "(4);(3)"],
                 ["idealize", "Z/4", "--module", "(2)"], ["count", "bell", "4"],
                 ["verify", "--suite", "s4"]):
        assert run(capsys, argv)[0] == 0, argv

    # the help text is formatted when asked for, at the width asked for
    monkeypatch.setenv("COLUMNS", "80")
    helps = [["--help"], ["lattice", "--help"]]
    assert [run_any(capsys, argv)[:2] for argv in helps] == fresh_runs(helps, COLUMNS="80")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_lattice_dot_to_an_unwritable_path(capsys, tmp_path, where):
    path, errno_code = ((tmp_path, errno.EISDIR) if where == "directory"
                        else (tmp_path / "missing" / "x.dot", errno.ENOENT))
    code, out, err = run(capsys, ["lattice", "Z/2", "Z/2 x Z/2", "--dot", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write DOT file {path}: {os.strerror(errno_code)}\n"


def test_a_crt_query_computes_each_ideal_sum_once(capsys, monkeypatch):
    # every crt query of the benchmark's query pool: the conductor formulas,
    # the weak CRT check, the minimality test and the reduction read the sums
    # of the queried family, so no two sums in one query share a ring and
    # summands, and no sum is computed on another ring, such as the base of
    # the reduced family, whose sums nobody reads
    ideal_sum, summands = cr.ideal_sum, []
    make_crt, families = cr.make_crt, []

    def counted(a, b):
        summands.append((a.ring, frozenset((a.elements, b.elements))))
        return ideal_sum(a, b)

    def recorded(ring, ideals):
        crt = make_crt(ring, ideals)
        families.append(crt.family)
        return crt

    monkeypatch.setattr(cr, "ideal_sum", counted)
    monkeypatch.setattr(cr, "make_crt", recorded)
    queries = [q for q in _workloads().mix_pool() if q[0] == "crt"]
    assert len(queries) > 50
    reduced = 0
    for argv in queries:
        summands.clear()
        families.clear()
        assert run(capsys, argv)[0] == 0
        keys = [(id(ring), key) for ring, key in summands]
        assert summands and len(set(keys)) == len(keys), argv
        assert {ring for ring, _ in keys} == {id(families[0].ring)}, argv
        reduced += len(families) > 1
    assert reduced > 10  # queries that build a reduced family


# Every value json.dumps(indent=2) writes: strs over all of Unicode (lone
# surrogates, quotes, backslashes and control characters included), ints of
# any size and sign, bools, None and floats; lists, tuples and dicts, empty
# ones included, with str keys and, through json.dumps, int keys.
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r", "é ü 漢 \U0001F600", "\u2028\u2029", "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(1 << 80), 1 << 80)
            | st.floats() | _TEXT)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=30)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_JSON_VALUES)
def test_the_writer_is_json_dumps_with_indent_2(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_the_writer_on_fixed_values():
    for obj in ({}, [], (), [[]], {"a": {}}, [1, True, None, -5, 1 << 70], {"x": (1, 2), "y": [False]},
                {1: [2], "b": None}, [1.5, float("inf"), float("nan")], "\u00e9\"\\\x01"):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._dumps({"n": [np.int64(3)]})


# Lists of rows of ints, which the writer joins a row at a time, beside
# the values that must not take that path: bools in a row, empty rows, rows
# next to other values in one list, and rows nested a level deeper.
_INTS = st.integers() | st.integers(-(1 << 80), 1 << 80)
_ROW = st.lists(_INTS, min_size=1, max_size=4)
_ROWS = st.recursive(
    _ROW | _ROW.map(tuple) | st.lists(_INTS | st.booleans(), max_size=4),
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.lists(inner | _INTS | st.none(), max_size=6)),
    max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ROWS)
def test_the_writer_on_rows_is_json_dumps_with_indent_2(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


class _Int(int):
    pass


def test_the_writer_on_fixed_rows():
    for obj in ([[0, 1], [1, 2]], [(0, 1), (1, 2)], ((5,), [6, 7]), [[1, True]], [[False]], [[_Int(3), 4]],
                [(_Int(3),)], [[1], []], [[], [1]], [()], [[1], 2], [[1], "a"], [[1], None], [[1], {}],
                [[[1, 2]], [[3]]], [[[1]]], [[1 << 70, -(1 << 70)], [-1, 0]], [[1.5]],
                {"nodes": [(0,), (0, 1)], "hasse_edges": [[0, 1]], "chains": {"2": [[0, 1, 2]]}}):
        assert cli._dumps(obj) == json.dumps(obj, indent=2), obj


@pytest.mark.parametrize("name", ["F2-in-F2^4", "mixed-product", "Z4[u]/(u^2)", "F2-in-F16", "idealization",
                                  "crt-Z12"])
def test_the_writer_on_the_lattice_and_closures_of_the_zoo(extension_zoo, name):
    from ringlat import closures as cl
    from ringlat import lattice as lt

    ext = extension_zoo(name)
    for obj in (lt.intermediate_algebras(ext).to_json(), cl.canonical_decomposition(ext).to_json()):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)


# The JSON queries run above, and every query of the benchmark's workloads.
_QUERY_ZOO = [argv for argv in _ONE_QUERY_PER_SUBCOMMAND if argv[0] != "count"] + [
    ["lattice", "Z/4", "Z/4 x Z/4"],
    ["lattice", "Z/2", "Z/2 x Z/2", "--embed", "explicit:0,3"],
    ["lattice", "Z/2", "GF(2^1)"],
    ["classify", "Z/2", "Z/2"],
    ["classify", "GF(2)", "GF(2^2)"],
    ["closures", "Z/2", "Z/2 x Z/2"],
    ["idealize", "Z/4", "--module", "(2) + ()"],
    ["verify", "--suite", "s4"],
]


def test_the_writer_on_every_query_of_the_zoo(capsys):
    workloads = _workloads()
    queries = _QUERY_ZOO + workloads.LATTICE_LARGE + workloads.STRUCTURE_MID + workloads.mix_pool()
    written = 0
    for argv in queries:
        code, out, _ = run(capsys, argv)
        if argv[0] == "count" or code != 0:
            continue
        # a JSON document read back and written by json.dumps gives its text
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        written += 1
    assert written > 300
