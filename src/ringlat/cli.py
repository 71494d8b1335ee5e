"""Command line front end.

Ring arguments are expressions in the small algebra language documented in
dsl.py, e.g. "Z/4", "GF(2^3)", "Z/4 x Z/4", "Z/2[t]/(t^2)".  Output is JSON
on stdout (tagged "schema": 1) except for `count`, which prints a bare
integer.  Exit codes: 0 success, 1 failed verification or detected internal
inconsistency, 2 bad input or unmet precondition, 3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from . import closures as cl
from . import combinatorics as cb
from . import crt as cr
from . import dsl
from . import lattice as lt
from . import modules as md
from . import rings as rg
from . import verify as vf
from .errors import (InternalCheckError, PreconditionError, RinglatError,
                     SizeLimitError)


# The C encoder of int rows, without json's circular check, whose dict of
# every row's id raises the peak memory of a large lattice's output; rows
# of ints cannot contain themselves.
_ROW_ENCODER = json.JSONEncoder(check_circular=False)


def _emit(obj: dict) -> None:
    print(_dumps(obj))


def _dumps(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), where newline is the line break and indent
    of obj's own level.

    CPython encodes with C code only when indent is None, so the indented
    output is written here: strs (by json's own escaping function), ints,
    bools and None as json writes them, a list or tuple and a dict with str
    keys level by level, a list of ints in one join, a list of non-empty
    rows (lists or tuples) of ints by json's C encoder, its separators
    replaced by line breaks, and any other value (a float, a subclass of any
    of these types) by json.dumps with indent=2, re-indented to its level."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = newline + "  "
    if kind is list or kind is tuple:
        kinds = set(map(type, obj))
        if kinds <= {int}:
            items = map(int.__repr__, obj)
        elif kinds <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            # "[[a, b], [c, d]]": the only ", " and "], [" are separators
            rows = _ROW_ENCODER.encode(obj)[2:-2].replace("], [", inner + "]," + inner + "[" + inner + "  ")
            return ("[" + inner + "[" + inner + "  " + rows.replace(", ", "," + inner + "  ")
                    + inner + "]" + newline + "]")
        else:
            items = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if obj else "[]"
    if kind is dict and all(type(k) is str for k in obj):
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if obj else "{}"
    return json.dumps(obj, indent=2).replace("\n", newline)


# ---------------------------------------------------------------------------
# embedding resolution

def _explicit_extension(base: dsl.BuildResult, top: rg.FiniteRing,
                        spec: str) -> lt.Extension:
    body = spec[len("explicit:"):]
    try:
        entries = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise PreconditionError(f"explicit embedding {body!r} is not a comma-separated "
                                "list of element indices")
    if len(entries) != base.ring.order:
        raise PreconditionError(f"explicit embedding lists {len(entries)} images for a "
                                f"base of order {base.ring.order}")
    return lt.Extension(rg.RingHom(base.ring, top, np.asarray(entries)))


def _product_extension(base: rg.FiniteRing, base_factors: Sequence[rg.FiniteRing],
                       top_factors: Sequence[rg.FiniteRing]) -> lt.Extension:
    """Base R^p into the product of the top factors: top component k is base
    component min(k, p - 1).  With p = 1 this is the diagonal; otherwise the
    last base component rides the identity of the tail block {p,...,n}."""
    p = len(base_factors)
    comps = rg.product_components([f.order for f in base_factors], np.arange(base.order))
    pr = rg.product(top_factors)
    hom = rg.pair_homs(base, pr, [comps[min(k, p - 1)] for k in range(len(top_factors))])
    return lt.Extension(hom)


def _named_parts(base: dsl.BuildResult, built: Sequence[tuple[dsl.RingExpr, rg.FiniteRing]],
                 top_ast: dsl.RingExpr,
                 embed: str) -> tuple[Sequence[rg.FiniteRing], tuple[rg.FiniteRing, ...]]:
    """The base factors and the top factors of --embed diagonal or
    first-factor for _product_extension.  Every top factor must equal the
    first base factor, so a factor whose expression fixes another order
    (dsl.exact_order) is refused before any top factor is built: a
    malformed request is bad input before the top's size is checked.  A
    top factor spelled like the base or a factor of it (built) is that
    ring, not built again."""
    factors = top_ast.factors if isinstance(top_ast, dsl.ProductE) else ()
    if embed == "diagonal":
        parts, why = (base.ring,), ("the diagonal embedding needs a product top expression "
                                    "with every factor equal to the base ring")
    elif not factors:
        raise PreconditionError("no compatible identity: the first-factor embedding "
                                "needs a product top expression")
    else:
        parts, why = base.factors or (base.ring,), ("no compatible identity: the first-factor "
                                                    "embedding needs equal factors and at least "
                                                    "as many on top")
    if (len(factors) < len(parts) or not all(rg.same_tables(f, parts[0]) for f in parts)
            or any(dsl.exact_order(f) not in (None, parts[0].order) for f in factors)):
        raise PreconditionError(why)
    tops = dsl.build_factors(top_ast, built)
    if not all(rg.same_tables(f, parts[0]) for f in tops):
        raise PreconditionError(why)
    return parts, tops


def _prime_extension(base: rg.FiniteRing, top: rg.FiniteRing) -> lt.Extension:
    try:
        return lt.Extension(rg.prime_hom(base, top))
    except PreconditionError as e:
        raise PreconditionError(f"cannot infer an embedding: {e}; pass --embed "
                                "explicit:<map>")


def resolve_extension(base_text: str, top_text: str, embed: Optional[str], *,
                      lattice: bool = False) -> lt.Extension:
    """Build both rings and an injective unital map between them.

    Without --embed: a top expression built over the base by quotient or
    idealization suffixes uses the construction maps; a product of copies of
    the base uses the diagonal; a base generated by 1 uses repeated addition
    of 1.  Anything else needs an explicit table.  The factors of a product
    top come from dsl.build_factors, which refuses a product over the
    arithmetic bound before the factor that passes it is built and takes
    the base ring, or a product base's factor, for a factor spelled like it;
    they are checked against the embedding asked for before their product
    is taken.  With
    lattice set, a base or top whose order its expression fixes
    (dsl.exact_order) is refused over the lattice bound before it is built
    (a base over the bound forces a top over it); only the factors that
    --embed diagonal or first-factor is checked against are built before
    the top's check.
    """
    base_ast = dsl.parse(base_text)
    top_ast = dsl.parse(top_text)
    explicit = embed is not None and embed.startswith("explicit:")
    if not explicit and embed not in (None, "diagonal", "first-factor"):
        raise PreconditionError(f"unknown embedding {embed!r}; use diagonal, "
                                "first-factor or explicit:<map>")
    if lattice and (order := dsl.exact_order(base_ast)) is not None:
        lt.check_lattice_order(order)
    base = dsl.build(base_ast)
    # the expressions built so far with their rings: the base and its factors
    built = [(base_ast, base.ring), *zip(getattr(base_ast, "factors", ()), base.factors)]
    product_top = isinstance(top_ast, dsl.ProductE)
    tops = parts = None
    if embed in ("diagonal", "first-factor"):
        parts, tops = _named_parts(base, built, top_ast, embed)
    if lattice and (order := dsl.exact_order(top_ast)) is not None:
        lt.check_lattice_order(order)
    chain = dsl.suffix_chain(top_ast, base_ast) if embed is None else None
    if chain is not None:
        built, homs = base, []
        for step in chain:
            built, hom = dsl.build_step(built, step)
            homs.append(hom)
        hom = functools.reduce(rg.compose, homs) if homs else rg.identity_hom(base.ring)
        return lt.Extension(hom)
    if product_top and tops is None:
        tops = dsl.build_factors(top_ast, built)
        if not explicit and all(rg.same_tables(f, base.ring) for f in tops):
            parts = (base.ring,)
    if parts is not None:
        return _product_extension(base.ring, parts, tops)
    top = dsl.build(top_ast).ring if tops is None else rg.product(tops).ring
    return _explicit_extension(base, top, embed) if explicit else _prime_extension(base.ring, top)


# ---------------------------------------------------------------------------
# commands

def _cmd_lattice(args) -> int:
    ext = resolve_extension(args.base, args.top, args.embed, lattice=True)
    report = lt.intermediate_algebras(ext)
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(report.to_dot())
        except OSError as e:
            raise PreconditionError(f"cannot write DOT file {args.dot}: {e.strerror}") from None
    _emit(report.to_json())
    return 0


def _cmd_classify(args) -> int:
    ext = resolve_extension(args.base, args.top, args.embed, lattice=True)
    report = lt.intermediate_algebras(ext)
    out = {
        "schema": 1,
        "kind": "classification",
        "base": ext.base.label,
        "top": ext.top.label,
        "lattice_count": report.count,
        "minimal": report.count == 2,
        "classification": None,
        "predicates": lt.predicate_battery(report),
    }
    if report.count == 2:
        res = lt.classify_minimal(report)
        out["classification"] = {
            "class": res.kind,
            "crucial_ideal": list(res.crucial.elements),
            "residue_degree": res.residue_degree,
        }
    _emit(out)
    return 0


def _cmd_closures(args) -> int:
    ext = resolve_extension(args.base, args.top, args.embed)
    dec = cl.canonical_decomposition(ext)
    _emit(dec.to_json())
    return 0


def _cmd_crt(args) -> int:
    base = dsl.build_text(args.ring)
    groups = dsl.parse_groups(args.ideals, ";", "ideal list")
    gens = [[dsl.eval_element(base, g, "ideal generator") for g in grp] for grp in groups]
    crt = cr.make_crt(base.ring, gens)
    fam = crt.family
    out = {
        "schema": 1,
        "kind": "crt",
        "ring": base.ring.label,
        "normalized": fam.normalized,
        "base_order": fam.ring.order,
        "top_order": crt.top_order,
        "quotient_orders": [fam.ring.order // i.order for i in fam.ideals],
        "conductor": list(cr.conductor_by_formula(crt).elements),
        "weak_agreement": list(cr.weak_crt_check(crt)),
        "crt_isomorphism": crt.is_isomorphism,
    }
    if fam.n == 2:
        two = cr.is_minimal_crt2(crt)
        out["minimal"] = {
            "minimal": two.minimal,
            "quotient_is_field": two.minimal,
            "predicted_count": two.predicted_count,
        }
    else:
        witness = cr.is_minimal_crt(crt)
        out["minimal"] = {
            "minimal": witness is not None,
            "witness_pair": None if witness is None else list(witness),
        }
    red = cr.reduce_to_zero_conductor(crt)
    out["reduction"] = {
        "crt_isomorphism": red.crt_isomorphism,
        "dropped_factors": list(red.dropped),
        "base_order": None if red.crt is None else red.crt.family.ring.order,
    }
    _emit(out)
    return 0


def _cmd_idealize(args) -> int:
    base = dsl.build_text(args.ring)
    mod = dsl.build_module(base, dsl.parse_groups(args.module, "+", "module spec"))
    lat = md.submodules(mod)
    bij = md.idealization_lattice_bijection(lat)
    out = {
        "schema": 1,
        "kind": "idealize",
        "ring": base.ring.label,
        "module_order": mod.order,
        "idealization_order": bij.report.extension.top.order,
        "nu": lat.count,
        "module_length": md.module_length(mod),
        "cyclic": md.is_cyclic(mod) is not None,
        "uniserial": md.is_uniserial(lat),
        "faithful": md.is_faithful(mod),
        "lattice_bijection": bij.ok,
        "extension_lattice_count": bij.lattice_count,
    }
    _emit(out)
    return 0


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # int()'s own decimal syntax: a match was refused for its digit count
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):
            raise SizeLimitError(f"integer argument of {len(text)} characters") from None
        raise PreconditionError(f"not an integer: {text!r}") from None


def _cmd_count(args) -> int:
    if args.what == "bell":
        if len(args.rest) != 1:
            raise PreconditionError("usage: count bell <n>")
        print(cb.bell(_int_arg(args.rest[0])))
        return 0
    if args.what == "stirling":
        if len(args.rest) != 2:
            raise PreconditionError("usage: count stirling <n> <p>")
        print(cb.stirling2(_int_arg(args.rest[0]), _int_arg(args.rest[1])))
        return 0
    if args.what == "exal":
        if len(args.rest) != 3:
            raise PreconditionError("usage: count exal <ring> <p> <n>")
        ring = dsl.build_text(args.rest[0]).ring
        print(cb.enumerate_exal(ring, _int_arg(args.rest[1]), _int_arg(args.rest[2])).count)
        return 0
    raise PreconditionError(f"unknown count {args.what!r}; use bell, stirling or exal")


def _cmd_verify(args) -> int:
    results = vf.run_suite(args.suite)
    passed = all(r.passed for r in results)
    _emit({
        "schema": 1,
        "kind": "verify",
        "suite": args.suite,
        "results": [r.to_json() for r in results],
        "passed": passed,
    })
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringlat",
        description="Exact lattices of intermediate subrings of finite commutative rings.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("base", help="base ring expression")
        p.add_argument("top", help="top ring expression")
        p.add_argument("--embed", default=None,
                       help="diagonal, first-factor, or explicit:<comma-separated images>")

    p = sub.add_parser("lattice", help="enumerate the intermediate subalgebra lattice")
    add_pair(p)
    p.add_argument("--dot", default=None, metavar="FILE", help="write the Hasse diagram as DOT")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("classify", help="minimality, trichotomy class and predicates")
    add_pair(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("closures", help="seminormalization and t-closure chain")
    add_pair(p)
    p.set_defaults(fn=_cmd_closures)

    p = sub.add_parser("crt", help="separating family analysis")
    p.add_argument("ring", help="base ring expression")
    p.add_argument("--ideals", required=True,
                   help="semicolon-separated parenthesized generator lists, e.g. \"(4);(3);(3)\"")
    p.set_defaults(fn=_cmd_crt)

    p = sub.add_parser("idealize", help="idealization R(+)M and its submodule lattice")
    p.add_argument("ring", help="base ring expression")
    p.add_argument("--module", required=True,
                   help="cyclic summands, e.g. \"(2) + ()\"")
    p.set_defaults(fn=_cmd_idealize)

    p = sub.add_parser("count", help="bell <n> | stirling <n> <p> | exal <ring> <p> <n>")
    p.add_argument("what")
    p.add_argument("rest", nargs="*")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("verify", help="run the structural check corpus")
    p.add_argument("--suite", default="all", choices=vf.SUITE_CHOICES)
    p.set_defaults(fn=_cmd_verify)
    return ap


# Built once per process: main() may be called many times in one.
_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimitError as e:
        print(f"size limit: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 1
    except RinglatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
