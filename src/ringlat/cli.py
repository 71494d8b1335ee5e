"""Command line front end.

Ring arguments are expressions in the small algebra language documented in
dsl.py, e.g. "Z/4", "GF(2^3)", "Z/4 x Z/4", "Z/2[t]/(t^2)".  Output is JSON
on stdout (tagged "schema": 1) except for `count`, which prints a bare
integer.  Exit codes: 0 success, 1 failed verification or detected internal
inconsistency, 2 bad input or unmet precondition, 3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

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


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# embedding resolution

def _explicit_extension(base: dsl.BuildResult, top: dsl.BuildResult,
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
    hom = rg.RingHom(base.ring, top.ring, np.asarray(entries))
    return lt.Extension(base.ring, top.ring, hom)


def _diagonal_extension(base: dsl.BuildResult, top_ast: dsl.RingExpr,
                        max_order: Optional[int]) -> Optional[lt.Extension]:
    """The diagonal of the base into a top product of copies of it; None for
    any other top."""
    if not isinstance(top_ast, dsl.ProductE):
        return None
    factors = [dsl.build(f, max_order=max_order).ring for f in top_ast.factors]
    if not all(rg.same_tables(f, base.ring) for f in factors):
        return None
    pr = rg.product(factors, max_order=max_order)
    ident = np.arange(base.ring.order)
    return lt.Extension(base.ring, pr.ring, rg.pair_homs(base.ring, pr, [ident] * len(factors)))


def _first_factor_extension(base: dsl.BuildResult, base_ast: dsl.RingExpr,
                            top_ast: dsl.RingExpr,
                            max_order: Optional[int]) -> lt.Extension:
    """Base R^p into top R^n along the partition {1},...,{p-1},{p,...,n}: the
    last base component rides the identity of the tail block."""
    if not isinstance(top_ast, dsl.ProductE):
        raise PreconditionError("no compatible identity: the first-factor embedding "
                                "needs a product top expression")
    top_factors = [dsl.build(f, max_order=max_order).ring for f in top_ast.factors]
    if isinstance(base_ast, dsl.ProductE):
        base_factors = [dsl.build(f, max_order=max_order).ring for f in base_ast.factors]
    else:
        base_factors = [base.ring]
    p, n = len(base_factors), len(top_factors)
    same = all(rg.same_tables(f, base_factors[0]) for f in base_factors + top_factors)
    if not same or n < p:
        raise PreconditionError("no compatible identity: the first-factor embedding "
                                "needs equal factors and at least as many on top")
    pr = rg.product(top_factors, max_order=max_order)
    comps = rg.product_components([f.order for f in base_factors], np.arange(base.ring.order))
    hom = rg.pair_homs(base.ring, pr, [comps[min(k, p - 1)] for k in range(n)])
    return lt.Extension(base.ring, pr.ring, hom)


def _structural_extension(base: dsl.BuildResult, base_ast: dsl.RingExpr,
                          top_ast: dsl.RingExpr,
                          max_order: Optional[int]) -> Optional[lt.Extension]:
    chain = dsl.suffix_chain(top_ast, base_ast)
    if chain is None:
        return None
    built = base
    hom = rg.identity_hom(base.ring)
    for step in chain:
        built, step_hom = dsl.build_step(built, step, max_order=max_order)
        hom = rg.compose(hom, step_hom)
    return lt.Extension(base.ring, built.ring, hom)


def _prime_extension(base: dsl.BuildResult, top: dsl.BuildResult) -> lt.Extension:
    try:
        return lt.Extension(base.ring, top.ring, rg.prime_hom(base.ring, top.ring))
    except PreconditionError as e:
        raise PreconditionError(f"cannot infer an embedding: {e}; pass --embed "
                                "explicit:<map>")


def resolve_extension(base_text: str, top_text: str, embed: Optional[str],
                      max_order: Optional[int] = None) -> lt.Extension:
    """Build both rings and an injective unital map between them.

    Without --embed: a top expression built over the base by quotient or
    idealization suffixes uses the construction maps; a product of copies of
    the base uses the diagonal; a base generated by 1 uses repeated addition
    of 1.  Anything else needs an explicit table.
    """
    base_ast = dsl.parse(base_text)
    top_ast = dsl.parse(top_text)
    base = dsl.build(base_ast, max_order=max_order)
    if embed is not None and embed.startswith("explicit:"):
        return _explicit_extension(base, dsl.build(top_ast, max_order=max_order), embed)
    if embed == "diagonal":
        diagonal = _diagonal_extension(base, top_ast, max_order)
        if diagonal is None:
            raise PreconditionError("the diagonal embedding needs a product top expression "
                                    "with every factor equal to the base ring")
        return diagonal
    if embed == "first-factor":
        return _first_factor_extension(base, base_ast, top_ast, max_order)
    if embed is not None:
        raise PreconditionError(f"unknown embedding {embed!r}; use diagonal, "
                                "first-factor or explicit:<map>")
    structural = _structural_extension(base, base_ast, top_ast, max_order)
    if structural is not None:
        return structural
    return (_diagonal_extension(base, top_ast, max_order)
            or _prime_extension(base, dsl.build(top_ast, max_order=max_order)))


# ---------------------------------------------------------------------------
# commands

def _cmd_lattice(args) -> int:
    ext = resolve_extension(args.base, args.top, args.embed)
    report = lt.intermediate_algebras(ext)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(report.to_dot())
    _emit(report.to_json())
    return 0


def _cmd_classify(args) -> int:
    ext = resolve_extension(args.base, args.top, args.embed)
    report = lt.intermediate_algebras(ext)
    out = {
        "schema": 1,
        "kind": "classification",
        "base": ext.base.label,
        "top": ext.top.label,
        "lattice_count": report.count,
        "minimal": report.count == 2,
        "classification": None,
        "predicates": lt.predicate_battery(ext, report),
    }
    if report.count == 2:
        res = lt.classify_minimal(ext, report)
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


def _parse_ideal_groups(text: str) -> list[tuple]:
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise PreconditionError(f"ideal group {chunk!r} is not parenthesized")
        inner = chunk[1:-1].strip()
        groups.append(dsl.parse_poly_list(inner) if inner else ())
    return groups


def _cmd_crt(args) -> int:
    base = dsl.build_text(args.ring)
    groups = _parse_ideal_groups(args.ideals)
    gens = [[dsl.eval_element(base.ring, base.names, g, "ideal generator") for g in grp]
            for grp in groups]
    crt = cr.make_crt(base.ring, gens)
    fam = crt.family
    out = {
        "schema": 1,
        "kind": "crt",
        "ring": base.ring.label,
        "normalized": fam.normalized,
        "base_order": fam.ring.order,
        "top_order": crt.extension.top.order,
        "quotient_orders": [fam.ring.order // i.order for i in fam.ideals],
        "conductor": list(cr.conductor_by_formula(crt).elements),
        "weak_agreement": list(cr.weak_crt_check(crt)),
        "crt_isomorphism": crt.is_isomorphism,
    }
    if fam.n == 2:
        two = cr.is_minimal_crt2(crt)
        out["minimal"] = {
            "minimal": two.minimal,
            "quotient_is_field": two.quotient_is_field,
            "predicted_count": two.predicted_count,
        }
    else:
        res = cr.is_minimal_crt(crt)
        out["minimal"] = {
            "minimal": res.minimal,
            "witness_pair": None if res.witness is None else list(res.witness),
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
    mod = dsl.build_module(base, dsl.parse_module_spec(args.module))
    ext, idl = md.idealization_extension(base.ring, mod)
    lat = md.submodules(mod)
    bij = md.idealization_lattice_bijection(base.ring, mod)
    out = {
        "schema": 1,
        "kind": "idealize",
        "ring": base.ring.label,
        "module_order": mod.order,
        "idealization_order": idl.ring.order,
        "nu": lat.count,
        "module_length": md.module_length(mod),
        "cyclic": md.is_cyclic(mod) is not None,
        "uniserial": md.is_uniserial(mod, lat),
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
    p.add_argument("--suite", default="all", choices=["all", "s2", "s3", "s4", "s5", "s6"])
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
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
