"""Self-checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import calib
import spans
import workloads
from worker import EXPECTED, SRC


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries_and_no_repeats(workload):
    first = workloads.queries(workload, 7)
    assert first == workloads.queries(workload, 7)
    assert len({json.dumps(q) for q in first}) == len(first)


def test_other_seed_other_mix():
    assert workloads.queries("query-mix", 7) != workloads.queries("query-mix", 8)
    assert len(workloads.queries("query-mix", 7)) == workloads.MIX_QUERIES


def test_pool_has_no_repeats_and_every_query_is_recorded():
    pool = workloads.mix_pool()
    keys = [workloads.query_key(q) for q in pool]
    assert len(set(keys)) == len(keys)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    fixed = workloads.LATTICE_LARGE + workloads.STRUCTURE_MID
    assert set(keys) | {workloads.query_key(q) for q in fixed} == set(expected)
    assert all(v["exit"] == 0 for v in expected.values())


def test_oracles():
    assert [workloads.bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert [workloads.divisor_count(k) for k in (1, 6, 8, 12)] == [1, 4, 4, 6]
    assert workloads.expected_count(["lattice", "Z/2", "Z/2 x Z/2 x Z/2"]) == 5
    assert workloads.expected_count(["lattice", "GF(2^2)", "GF(2^2) x GF(2^2)"]) == 2
    assert workloads.expected_count(["lattice", "Z/3", "GF(3^4)"]) == 3
    assert workloads.expected_count(["lattice", "Z/4", "Z/4 x Z/4"]) is None
    assert workloads.expected_count(["classify", "Z/2", "Z/2 x Z/2"]) is None


def test_clock_leaves_out_calibration():
    t0, c0 = time.perf_counter(), calib.clock()
    calib.sample()
    assert calib.clock() - c0 < (time.perf_counter() - t0) / 2
    assert calib.samples[-1] > 0


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 6]; the first has a child [2, 3]
    tree = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
            ("b", 2.0, 3.0, 1, 0), ("c", 5.0, 6.0, 0, 0)]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_counts_closure_attempts_under_enumeration():
    tracer = spans.Tracer()
    tracer.spans = [("rings.enumerate_closed_subsets", 0.0, 4.0, -1, 0),
                    ("rings.extend_closure_mask", 0.5, 1.0, 0, 0),
                    ("rings.extend_closure_mask", 1.0, 2.0, 0, 0),
                    ("rings.extend_closure_mask", 5.0, 6.0, -1, 0)]
    tracer.counters["closure_subsets"] = 1
    m = spans.layer_metrics(tracer)
    assert m["rings.extend_closure_mask.calls"] == 3
    assert m["rings.closure_yield"] == 0.5
    assert m["rings.enumerate_closed_subsets.self_s"] == 2.5
    # self times are divided by the slowdown of their span's query
    assert spans.layer_metrics(tracer, [2.0])["rings.enumerate_closed_subsets.self_s"] == 1.25


def test_install_wraps_every_binding_and_counts():
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import ringlat.cli, ringlat.lattice, ringlat.rings
import spans
tracer = spans.Tracer()
tracer.install()
assert ringlat.lattice.enumerate_closed_subsets is ringlat.rings.enumerate_closed_subsets
assert ringlat.lattice.enumerate_closed_subsets.__wrapped__ is not None
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert ringlat.cli.main(["lattice", "Z/2", "Z/2 x Z/2 x Z/2"]) == 0
m = spans.layer_metrics(tracer)
print(m["lattice.nodes"], m["rings.RingHom.calls"] > 0, m["dsl.parse.calls"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=spans.__file__.rsplit("/", 1)[0], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["5", "True", "2"]
