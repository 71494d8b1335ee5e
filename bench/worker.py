"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py.  The worker imports ringlat from ``src/`` of the checkout,
builds the workload's query list, prints ``ready`` (the parent times set-up
up to that line) and, unless ``--setup-only``, runs every query through
``ringlat.cli.main`` in-process, one after another.  While they run it
samples the host's speed (calib.py) and scales each query's time by it.
Each query's exit code and a digest of its stdout are checked against
``expected.json``, and lattice counts with a closed formula are checked
against the oracles in workloads.py.  With ``--trace 1`` the spans are
written to ``bench/out/`` (spans.py).  The last line of stdout is a JSON
object with the pass's results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"


def run_query(cli_main, argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code (None for a crash), stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed query, not the end of the pass
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def check_query(argv, rc, stdout, expected) -> str | None:
    """Why the query's result is wrong, or None when it is right."""
    want = expected.get(workloads.query_key(argv))
    if want is None:
        return "no recorded output"
    if rc != want["exit"]:
        return f"exit {rc}, expected {want['exit']}"
    if hashlib.sha256(stdout.encode()).hexdigest() != want["sha256"]:
        return "stdout differs from the recorded output"
    count = workloads.expected_count(argv)
    if count is not None:
        try:
            got = json.loads(stdout)["count"]
        except (ValueError, KeyError, TypeError):
            return "lattice output has no count"
        if got != count:
            return f"lattice count {got}, oracle says {count}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ringlat.cli
    if Path(ringlat.__file__).resolve().parent.parent != SRC:
        print(f"ringlat imported from {ringlat.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    queries = workloads.queries(args.workload, args.seed)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    print("ready", flush=True)
    calib.sample()
    if args.setup_only:
        print(json.dumps({"ready_slowdown": calib.samples[0]}))
        return 0

    # Each output is checked, untimed, as soon as its query returns, so that
    # no pass holds earlier outputs and peak memory is the queries' own.  A
    # query's slowdown is the mean of the samples taken during it and of the
    # last one before and the first one after it.
    latencies = []
    windows = []
    failures = []
    calib.start()
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        first = len(calib.samples) - 1
        t0 = calib.clock()
        rc, stdout, stderr = run_query(ringlat.cli.main, q)
        latencies.append(calib.clock() - t0)
        windows.append((first, len(calib.samples) + 1))
        why = check_query(q, rc, stdout, expected)
        if why is not None:
            failures.append({"query": q, "why": why, "stderr": stderr[-2000:]})
    calib.stop()
    calib.sample()
    slowdowns = [statistics.mean(calib.samples[a:b]) for a, b in windows]
    scaled = [t / s for t, s in zip(latencies, slowdowns)]
    out = {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(latencies),
        "latencies_s": scaled,
        "ready_slowdown": calib.samples[0],
        "slowdown": statistics.median(calib.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(queries),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, slowdowns)
        tracer.write(spans.spans_path(args.workload, args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
