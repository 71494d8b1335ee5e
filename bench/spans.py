"""Spans around calls into ringlat's public functions, recorded from outside.

``Tracer.install`` replaces each listed function at every module binding
inside the ``ringlat`` package (``lattice`` imports ``enumerate_closed_subsets``
into its own namespace, so that binding is replaced too) and wraps
``RingHom.__post_init__``, which counts hom constructions and their
all-pairs validation.  Spans are timed with ``calib.clock``, which leaves
out host-speed calibration, and stay in memory as
``(name, start, end, parent, query)`` tuples; ``layer_metrics`` derives self
times and counters from them after the pass, and ``Tracer.write`` writes them
to ``spans_path`` as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import calib

OUT = Path(__file__).resolve().parent / "out"

# Functions wrapped in each module.  The constructors in rings are also the
# source of ``rings.table_bytes``.
TRACED = {
    "cli": ("main", "resolve_extension"),
    "dsl": ("parse", "build"),
    "rings": ("make_zmod", "make_gf", "product", "quotient", "poly_quotient",
              "enumerate_closed_subsets", "extend_closure_mask"),
    "lattice": ("intermediate_algebras", "poset_structure", "is_delta0", "is_quadratic",
                "is_delta", "is_pointwise_minimal", "is_infra_integral", "is_subintegral",
                "classify_minimal"),
    "ideals": ("all_ideals", "spectrum", "conductor"),
    "closures": ("seminormalization", "t_closure", "canonical_decomposition"),
    "crt": ("make_crt", "reduce_to_zero_conductor", "is_minimal_crt"),
    "modules": ("submodules", "idealization_lattice_bijection"),
    "combinatorics": ("enumerate_exal", "homal_to_hom"),
    "verify": ("run_suite",),
}
RING_HOM = "rings.RingHom"
CONSTRUCTORS = ("rings.make_zmod", "rings.make_gf", "rings.product", "rings.quotient",
                "rings.poly_quotient")

# The per-layer metrics a traced pass reports: (name, unit).
_CALLS = ("dsl.parse", "dsl.build", RING_HOM, "rings.enumerate_closed_subsets",
          "rings.extend_closure_mask", "ideals.all_ideals", "ideals.spectrum")
_SELF = ("cli.main", "cli.resolve_extension", "dsl.parse", "dsl.build", RING_HOM,
         "rings.product", "rings.quotient", "rings.poly_quotient", "rings.make_gf",
         "rings.enumerate_closed_subsets", "rings.extend_closure_mask",
         "lattice.intermediate_algebras", "lattice.poset_structure", "lattice.is_delta0",
         "lattice.is_quadratic", "lattice.is_delta", "lattice.is_pointwise_minimal",
         "lattice.is_infra_integral", "lattice.is_subintegral", "lattice.classify_minimal",
         "ideals.all_ideals", "ideals.spectrum", "ideals.conductor",
         "closures.seminormalization", "closures.t_closure", "closures.canonical_decomposition",
         "crt.make_crt", "crt.reduce_to_zero_conductor", "crt.is_minimal_crt",
         "modules.submodules", "modules.idealization_lattice_bijection",
         "combinatorics.enumerate_exal", "combinatorics.homal_to_hom", "verify.run_suite")
COUNTERS = (("rings.table_bytes", "bytes"), ("rings.closure_yield", "ratio"),
            ("lattice.nodes", "count"), ("lattice.hasse_edges", "count"))
LAYER_METRICS = ([(f"{n}.calls", "count") for n in _CALLS]
                 + [(f"{n}.self_s", "s") for n in _SELF]
                 + list(COUNTERS) + [("trace_overhead_s", "s")])


class Tracer:
    """Records one span per call into a traced function."""

    def __init__(self):
        self.spans: list = []
        self.query = -1
        self.counters = {"rings.table_bytes": 0, "lattice.nodes": 0,
                         "lattice.hasse_edges": 0, "closure_subsets": 0}
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = calib.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent, self.query)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hook(self, name: str):
        c = self.counters
        if name in CONSTRUCTORS:
            def count_tables(result):
                ring = getattr(result, "ring", result)
                c["rings.table_bytes"] += ring.add.nbytes + ring.mul.nbytes
            return count_tables
        if name == "lattice.intermediate_algebras":
            def count_lattice(report):
                c["lattice.nodes"] += len(report.nodes)
                c["lattice.hasse_edges"] += len(report.hasse_edges)
            return count_lattice
        if name == "rings.enumerate_closed_subsets":
            def count_subsets(masks):
                c["closure_subsets"] += len(masks)
            return count_subsets
        return None

    def install(self) -> None:
        """Wrap every function in TRACED wherever ringlat binds it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ringlat" or name.startswith("ringlat.")}
        for short, fns in TRACED.items():
            home = mods[f"ringlat.{short}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{short}.{fn_name}"
                wrapper = self.span(name, original, self._hook(name))
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
        ring_hom = mods["ringlat.rings"].RingHom
        ring_hom.__post_init__ = self.span(RING_HOM, ring_hom.__post_init__)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced pass of ``workload`` with ``seed`` writes its spans."""
    return OUT / f"spans-{workload}-seed{seed}.jsonl"


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for cs, ce in sorted((spans[k][1], spans[k][2]) for k in kids):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, slowdowns: list[float] | None = None) -> dict[str, float]:
    """Per-layer calls, self times and counters of one traced pass.

    Each self time is divided by ``slowdowns[query]`` of its span's query
    when ``slowdowns`` is given (see calib.py).
    """
    spans = tracer.spans
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, _, _, _, query), st in zip(spans, self_times(spans)):
        if slowdowns is not None:
            st /= slowdowns[query]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
    # extend_closure_mask calls made under enumerate_closed_subsets
    under = [False] * len(spans)
    attempts = 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            under[i] = under[parent] or spans[parent][0] == "rings.enumerate_closed_subsets"
        if name == "rings.extend_closure_mask" and under[i]:
            attempts += 1
    c = tracer.counters
    out: dict[str, float] = {}
    for n in _CALLS:
        out[f"{n}.calls"] = calls.get(n, 0)
    for n in _SELF:
        out[f"{n}.self_s"] = self_s.get(n, 0.0)
    out["rings.table_bytes"] = c["rings.table_bytes"]
    out["rings.closure_yield"] = c["closure_subsets"] / attempts if attempts else 0.0
    out["lattice.nodes"] = c["lattice.nodes"]
    out["lattice.hasse_edges"] = c["lattice.hasse_edges"]
    return out
