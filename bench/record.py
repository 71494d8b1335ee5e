"""Record the reference output of every query the benchmark can run.

    python3 bench/record.py

Runs the lattice-large and structure-mid queries and the whole query-mix
pool through ``ringlat.cli.main`` from ``src/`` and rewrites
``bench/expected.json`` with each query's exit code and the SHA-256 of its
stdout.  Run it only at a commit whose outputs are the reference: the
benchmark counts every later difference as a failed query.  Every query must
exit 0 and agree with the oracles in workloads.py, or nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from worker import EXPECTED, SRC, run_query


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ringlat.cli

    queries = workloads.LATTICE_LARGE + workloads.STRUCTURE_MID + workloads.mix_pool()
    expected = {}
    bad = 0
    for q in queries:
        rc, stdout, stderr = run_query(ringlat.cli.main, q)
        count = workloads.expected_count(q)
        if rc != 0 or (count is not None and json.loads(stdout)["count"] != count):
            print(f"{json.dumps(q)}: exit {rc}, oracle {count}: {stderr.strip()}", file=sys.stderr)
            bad += 1
        expected[workloads.query_key(q)] = {
            "exit": rc, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if bad:
        print(f"{bad} queries failed; {EXPECTED} left unchanged", file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(expected.items())) + "\n}\n")
    print(f"recorded {len(expected)} queries in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
