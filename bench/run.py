"""ringlat benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ringlat is imported from its ``src/``.
Every timed pass runs in a fresh interpreter (worker.py), because every CLI
user pays for cold caches; inside it the queries go one after another
through ``ringlat.cli.main`` (a closed loop with one client).  Passes repeat
while the next one is expected to end within ``--seconds``; there is always
at least one.  Set-up time is sampled from extra set-up-only interpreters
and from every pass.  Times are scaled by the host's measured speed
(calib.py); the raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (spans.py) and the tracing overhead; the spans of the last traced pass
are written to ``bench/out/``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list each metric with its unit and spread.  The exit code is
non-zero, and no result is printed, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class PassError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # The size bounds a CLI user gets by default, and no foreign ringlat.
    env.pop("RINGLAT_MAX_ORDER", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, trace: int = 0, setup_only: bool = False) -> dict:
    """Start worker.py and return its result, with its set-up seconds added.

    ``raw_setup_s`` runs from the start of the process to its ``ready``
    line; ``setup_s`` divides it by the mean of the host's slowdown just
    before the start and just after ``ready``.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = calib.calibrate()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env()) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise PassError(f"a {workload} pass took longer than {PASS_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise PassError(f"the {workload} worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise PassError(f"the {workload} worker printed no result")
    res = json.loads(lines[-1])
    res["raw_setup_s"] = setup
    res["setup_s"] = setup / ((before + res["ready_slowdown"]) / 2)
    return res


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    setups = [run_worker(workload, seed, setup_only=True) for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_worker(workload, seed))
        if trace:
            traced.append(run_worker(workload, seed, trace=1))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break

    passes = plain + traced
    setups += passes
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    walls = [p["wall_s"] for p in plain]
    lines = [f"workload {workload}, seed {seed}: {len(plain)} untraced pass(es)"
             + (f", {len(traced)} traced" if trace else "")
             + f", {plain[0]['attempted']} queries per pass"]
    if not trace:
        lat_ms = [x * 1000 for p in plain for x in p["latencies_s"]]
        rss = [p["peak_rss_mb"] for p in plain]
        setup_s = [p["setup_s"] for p in setups]
        values = {
            "wall_s": (statistics.median(walls), spread(walls)),
            "latency_p50_ms": (percentile(lat_ms, 50), f"over {len(lat_ms)} queries"),
            "latency_p90_ms": (percentile(lat_ms, 90), f"over {len(lat_ms)} queries"),
            "peak_rss_mb": (statistics.median(rss), spread(rss)),
            "setup_s": (statistics.median(setup_s), spread(setup_s)),
        }
        metrics = {}
        for name, unit in END_TO_END:
            value, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:16} {value:12.6g} {unit:5} ({note})")
    else:
        layers = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name, _ in spans.LAYER_METRICS if name != "trace_overhead_s"}
        layers["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(walls))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        for name, unit in spans.LAYER_METRICS:
            lines.append(f"{name:48} {layers[name]:12.6g} {unit}")
        lines.append(f"spans of the last traced pass: {spans.spans_path(workload, seed)}")
    raw_walls = [p["raw_wall_s"] for p in plain]
    raw_setups = [p["raw_setup_s"] for p in setups]
    slowdowns = [p["slowdown"] for p in passes]
    lines.append(f"{'raw wall_s':16} {statistics.median(raw_walls):12.6g} s     "
                 f"({spread(raw_walls)})")
    lines.append(f"{'raw setup_s':16} {statistics.median(raw_setups):12.6g} s     "
                 f"({spread(raw_setups)})")
    lines.append(f"{'host slowdown':16} {statistics.median(slowdowns):12.6g} x     "
                 f"({spread(slowdowns)}; kernel time over {calib.REFERENCE_S} s)")
    lines.append(f"{'failed_ratio':16} {len(failures) / attempted:12.6g} ratio "
                 f"({len(failures)} of {attempted} queries)")
    for f in failures[:20]:
        lines.append(f"FAILED {json.dumps(f['query'])}: {f['why']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ringlat benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="query-mix sampling seed (default %(default)s)")
    ap.add_argument("--seconds", type=float, default=30,
                    help="start passes while they are expected to end within this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except PassError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
