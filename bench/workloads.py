"""Query lists of the three benchmark workloads and the oracles that check them.

A query is an argv list for ``ringlat.cli.main``.  ``lattice-large`` and
``structure-mid`` are fixed lists; ``query-mix`` samples distinct queries,
without replacement, from a fixed pool with a seeded generator.  Nothing here
imports ringlat: the oracles are independent of ``ringlat.combinatorics``.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations_with_replacement
from math import prod

WORKLOADS = ("lattice-large", "structure-mid", "query-mix")
DEFAULT_SEED = 1
MIX_QUERIES = 300

# Every pass of a workload is short enough for three or more passes in a
# 30-second run: on a shared host the run's median over passes then rejects
# bursts of contention.  The slower cases this rules out are listed in
# CHOICES.md.
LATTICE_LARGE = [
    ["lattice", "Z/2", " x ".join(["Z/2"] * 6)],
    ["lattice", "GF(2^2)", " x ".join(["GF(2^2)"] * 3)],
    ["lattice", "Z/16", "Z/16 x Z/16"],
    ["lattice", "Z/2", "GF(2^8)"],
    ["lattice", "Z/2", "Z/2[t]/(t^6)"],
]

STRUCTURE_MID = [
    ["classify", "Z/2", "GF(2^6)"],
    ["classify", "Z/2", "Z/2[t]/(t^6)"],
    ["classify", "Z/2", "Z/2 x Z/2 x Z/2 x Z/2 x Z/2"],
    ["classify", "Z/4", "Z/4 x Z/4 x Z/4"],
    ["classify", "Z/4", "Z/4[t]/(t^3)"],
    ["classify", "Z/2", "Z/2[t]/(t^3) x Z/2[t]/(t^2)"],
    ["classify", "Z/8", "Z/8 x Z/8"],
    ["classify", "Z/9", "Z/9[t]/(t^2)"],
    ["closures", "Z/8", "Z/8 x Z/8 x Z/8"],
    ["closures", "Z/4", "Z/4 x Z/4 x Z/4 x Z/4"],
    ["closures", "Z/2", "Z/2[t]/(t^8)"],
    ["crt", "Z/60", "--ideals", "(12);(10);(15)"],
    ["crt", "Z/72", "--ideals", "(8);(12);(18)"],
    ["count", "exal", "Z/6", "2", "4"],
    ["verify", "--suite", "s5"],
]

# (expression, order, characteristic) of the small rings the pool combines.
_FIELDS = [("Z/2", 2, 2), ("Z/3", 3, 3), ("Z/5", 5, 5), ("Z/7", 7, 7), ("Z/11", 11, 11),
           ("GF(2^2)", 4, 2), ("GF(2^3)", 8, 2), ("GF(3^2)", 9, 3)]
_LOCAL = [("Z/4", 4, 4), ("Z/8", 8, 8), ("Z/9", 9, 9),
          ("Z/2[t]/(t^2)", 4, 2), ("Z/2[t]/(t^3)", 8, 2), ("Z/3[t]/(t^2)", 9, 3)]
# Largest top (or idealization) order per subcommand.  Larger tops cost up to
# seconds each: a handful of them would decide a pass's time, and which of
# them a seed happens to draw would decide the spread between seeds.
MIX_BOUNDS = {"lattice": 32, "classify": 16, "closures": 32, "idealize": 32}
MIX_CRT_MODULUS = 16
MIX_TOP_ORDER = 128
MIX_COUNT_N = 8


def _power(expr: str, n: int) -> str:
    return " x ".join([expr] * n)


def _extension_pairs(bound: int) -> list[tuple[int, str, str]]:
    """(top order, base, top) for extensions whose embedding the CLI infers."""
    pairs = []
    for expr, q, _ in _FIELDS + _LOCAL:
        n = 2
        while q ** n <= bound:
            pairs.append((q ** n, expr, _power(expr, n)))
            n += 1
    for p in (2, 3, 5, 7, 11):
        k = 2
        while p ** k <= bound:
            pairs.append((p ** k, f"Z/{p}", f"GF({p}^{k})"))
            k += 1
    for m in (2, 3, 4, 5, 7, 8, 9, 11):
        k = 2
        while m ** k <= bound:
            pairs.append((m ** k, f"Z/{m}", f"Z/{m}[t]/(t^{k})"))
            k += 1
    for p, modulus in ((2, "t^2+t"), (2, "t^2+t+1"), (2, "t^3+t"), (2, "t^3+1"),
                       (3, "t^2+1"), (3, "t^2-1"), (3, "t^3-t"), (5, "t^2-1"), (5, "t^2+2")):
        order = p ** int(modulus[2])
        if order <= bound:
            pairs.append((order, f"Z/{p}", f"Z/{p}[t]/({modulus})"))
    # Mixed products of rings of one characteristic, over the prime ring by
    # repeated addition of 1.
    rings = _FIELDS + _LOCAL
    for i, (a, qa, ca) in enumerate(rings):
        for b, qb, cb in rings[i + 1:]:
            if ca == cb and qa * qb <= bound:
                pairs.append((qa * qb, f"Z/{ca}", f"{a} x {b}"))
    for order, n, spec in _idealizations(bound):
        pairs.append((order, f"Z/{n}", f"idealize(Z/{n}, {spec})"))
    return pairs


def _idealizations(bound: int) -> list[tuple[int, int, str]]:
    """(order of Z/n(+)M, n, module spec) for M a sum of at most three cyclic
    modules Z/n/(d), d a proper divisor of n or 0 (the free summand ())."""
    out = []
    for n in range(2, 17):
        cyc = [("()", n)] + [(f"({d})", d) for d in range(2, n) if n % d == 0]
        specs: dict[str, int] = {}
        for i, (a, oa) in enumerate(cyc):
            specs[a] = oa
            for j, (b, ob) in enumerate(cyc[i:], i):
                specs[f"{a} + {b}"] = oa * ob
                for c, oc in cyc[j:]:
                    specs[f"{a} + {b} + {c}"] = oa * ob * oc
        out += [(n * m, n, spec) for spec, m in specs.items() if n * m <= bound]
    return out


def _crt_families() -> list[tuple[int, str]]:
    """(n, "(d_1);...;(d_k)") for families of two or three principal ideals
    of Z/n, each generated by a proper divisor, whose top, the product of
    the Z/(d_i), has order at most MIX_TOP_ORDER."""
    out = []
    for n in range(4, MIX_CRT_MODULUS + 1):
        divs = [d for d in range(2, n) if n % d == 0]
        for k in (2, 3):
            out += [(n, ";".join(f"({d})" for d in fam))
                    for fam in combinations_with_replacement(divs, k)
                    if prod(fam) <= MIX_TOP_ORDER]
    return out


def mix_pool() -> list[list[str]]:
    """Every query query-mix may draw, without repeats, ordered by subcommand
    and then by input size, so that neighbours cost about the same."""
    sized = []
    for command in ("lattice", "classify", "closures"):
        sized += [(command, order, [command, base, top])
                  for order, base, top in _extension_pairs(MIX_BOUNDS[command])]
    sized += [("idealize", order, ["idealize", f"Z/{n}", "--module", spec])
              for order, n, spec in _idealizations(MIX_BOUNDS["idealize"])]
    sized += [("crt", n, ["crt", f"Z/{n}", "--ideals", fam]) for n, fam in _crt_families()]
    for n in range(1, MIX_COUNT_N + 1):
        sized.append(("count", n, ["count", "bell", str(n)]))
        sized += [("count", n, ["count", "stirling", str(n), str(p)]) for p in range(1, n + 1)]
    for q in (2, 3, 4, 6):
        for p, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
            if q ** n <= MIX_TOP_ORDER:
                sized.append(("count", n, ["count", "exal", f"Z/{q}", str(p), str(n)]))
    sized.sort(key=lambda t: (t[0], t[1]))
    return [q for _, _, q in sized]


def queries(workload: str, seed: int = DEFAULT_SEED) -> list[list[str]]:
    """The argv lists one pass of ``workload`` runs, in order.

    query-mix leaves out one query from each of ``len(pool) - MIX_QUERIES``
    consecutive blocks of the size-ordered pool, chosen by ``seed``, and
    shuffles the rest: seeds differ in their queries and their order but
    not in their mix of sizes."""
    if workload == "lattice-large":
        return [list(q) for q in LATTICE_LARGE]
    if workload == "structure-mid":
        return [list(q) for q in STRUCTURE_MID]
    if workload != "query-mix":
        raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    pool = mix_pool()
    rng = random.Random(seed)
    drop = len(pool) - MIX_QUERIES
    cuts = [round(i * len(pool) / drop) for i in range(drop + 1)]
    dropped = {rng.randrange(cuts[i], cuts[i + 1]) for i in range(drop)}
    picked = [q for i, q in enumerate(pool) if i not in dropped]
    rng.shuffle(picked)
    return picked


def query_key(argv: list[str]) -> str:
    return json.dumps(argv)


# ---------------------------------------------------------------------------
# oracles independent of ringlat

def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def divisor_count(k: int) -> int:
    return sum(1 for d in range(1, k + 1) if k % d == 0)


def _is_field_expr(expr: str) -> bool:
    if expr.startswith("GF("):
        return True
    if expr.startswith("Z/") and expr[2:].isdigit():
        n = int(expr[2:])
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    return False


def expected_count(argv: list[str]) -> int | None:
    """Node count a lattice query must report by a closed formula, if any.

    The lattice of k in k^n (diagonal) has Bell(n) nodes; the lattice of
    GF(p) in GF(p^k) has one node per divisor of k."""
    if len(argv) != 3 or argv[0] != "lattice":
        return None
    base, top = argv[1], argv[2]
    factors = top.split(" x ")
    if len(factors) > 1 and _is_field_expr(base) and all(f == base for f in factors):
        return bell(len(factors))
    m = re.fullmatch(r"GF\((\d+)\^(\d+)\)", top)
    if m and base == f"Z/{m.group(1)}":
        return divisor_count(int(m.group(2)))
    return None
