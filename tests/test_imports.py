"""Every module of the package uses each name it imports (the package
__init__ re-exports its imports, so it is not scanned), imports its package
siblings at module level, and every private module-level name of the
package is read by some module of it.  One size bound: the only per-call
bound parameter of the package is intermediate_algebras' max_order.  Every
annotation of the package resolves to a name its module binds.  One handle
per structure: no function takes a structure together with the context it
already holds, an extension is its embedding alone, and no function returns
an extension in a tuple beside a piece of it.  The argument parser is built
once, when cli is imported.  A value record is an immutable NamedTuple, and
a frozen dataclass is an object with identity (eq=False).  The pair closure
is the oracle: only verify.lattice_certificate reads it, so it never checks
itself; likewise only verify reads poset_structure, the oracle of the Hasse
edges the join closure finds.  Maximality is membership in the spectrum: only verify tests
whether a quotient is a field.  An interval above a node is read off the
lattice that holds it: no module enumerates the lattice of an
upper_extension.  Delta0 reads the spans R + Rt: no module builds a quotient
module from cosets to enumerate its submodules.  One kernel per job: no
module defines both a function f and its batched twin f_rows, and coset
minima come from the one coset labeller, not from a full gather of the add
table; and one round loop: only rings._coset_rounds both finds pending
cells (_cells) and gathers their cosets (_gather).  One element dtype: no module names np.int32, as element arrays use
rings.ELEMENT and counters int64.  A polynomial quotient divides on its layout:
rings.poly_quotient calls neither quotient nor compose.  A submodule count is
a count of closed sets: no function reads .count off a submodules(...) call,
which builds the whole poset.  One ndarray call per gather, scan and check:
no module calls np.ix_, np.flatnonzero or np.array_equal, whose Python
wrappers every small query pays many times over.  The canonical chain is
checked on the top's tables: closures builds no ring (realize, subset_ring)
and no hom (RingHom) for a node.  A CRT top is read off its factors: crt
builds a product (product, pair_homs) only where CrtExtension.extension
realizes it.  An additive check reads generators: ideals.product_conductor and
Ideal._is_valid read no table at a whole-axis slice and pass
product_table_rows its columns."""

import ast
import importlib
import inspect
import types
import typing
from pathlib import Path
from typing import Optional

import pytest

from ringlat.lattice import Extension, LatticeReport
from ringlat.modules import FiniteModule, SubmoduleLattice
from ringlat.rings import FiniteRing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringlat"


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each single-underscore function, class or constant
    defined at the top level of one of the sources (module name -> source)
    that no source reads, as a name, an attribute or an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def function_level_imports(source: str) -> list[str]:
    """function: .module for each relative import inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(f"{fn.name}: .{node.module or ''}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level)
    return sorted(found)


def function_parameters(sources: dict[str, str]) -> dict[str, list[str]]:
    """module.function -> parameter names, for every function of the
    sources (module name -> source), methods and nested functions included."""
    params = {}
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                params[f"{module}.{fn.name}"] = [
                    p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
    return params


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Optional, Sequence\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == ["Optional", "os"]


def test_scan_finds_an_orphaned_private_name():
    sources = {
        "a": "_LIMIT = 3\n_UNREAD = 4\ndef _helper():\n    return _LIMIT\nclass _Gone:\n    pass\n",
        "b": "from .a import _helper\n",
        "c": "import a\ndef _orphan():\n    a._helper()\ndef public():\n    pass\n",
    }
    assert orphaned_private_names(sources) == ["a._Gone", "a._UNREAD", "c._orphan"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_every_private_name_is_read():
    assert orphaned_private_names({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def test_scan_finds_a_function_level_import():
    source = ("from .a import x\nimport os\n"
              "def f():\n    from .b import y\n    import json\n    return x, y, os, json\n"
              "class C:\n    def m(self):\n        from . import c\n        return c\n")
    assert function_level_imports(source) == ["f: .b", "m: ."]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_its_siblings_at_module_level(module):
    assert function_level_imports((PACKAGE / module).read_text()) == []


def test_scan_finds_size_parameters():
    params = function_parameters({"m": "def f(a, *, max_order=None):\n    def g(b, **kw):\n        pass\n"})
    assert params == {"m.f": ["a", "max_order"], "m.g": ["b", "kw"]}


def test_one_size_bound():
    params = function_parameters({p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    sized = sorted(f"{fn}({p})" for fn, names in params.items()
                   for p in names if p in ("max_order", "max_matrices"))
    assert sized == ["lattice.intermediate_algebras(max_order)"]
    assert params["config.arith_limit"] == params["config.lattice_limit"] == []


def annotated_objects(module) -> list:
    """The classes and functions a module defines, with the methods,
    properties and cached properties of each class."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append(obj)
        elif inspect.isclass(obj):
            found.append(obj)
            for attr in vars(obj).values():
                fn = getattr(attr, "fget", None) or getattr(attr, "func", None) or getattr(attr, "__func__", attr)
                if inspect.isfunction(fn):
                    found.append(fn)
    return found


def test_scan_finds_annotated_objects():
    module = type(typing)("scanned")
    exec("import functools\n"
         "def f(x: int) -> int:\n    return x\n"
         "class C:\n    def m(self) -> 'C':\n        return self\n"
         "    @property\n    def p(self) -> int:\n        return 1\n"
         "    @functools.cached_property\n    def q(self) -> int:\n        return 2\n"
         "    @staticmethod\n    def s() -> None:\n        pass\n", vars(module))
    names = sorted(o.__qualname__ for o in annotated_objects(module))
    assert names == ["C", "C.m", "C.p", "C.q", "C.s", "f"]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_type_hints_resolve(module):
    unresolved = []
    for obj in annotated_objects(importlib.import_module(f"ringlat.{module}")):
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            unresolved.append(f"{obj.__qualname__}: {e}")
    assert unresolved == []


# a lattice holds its extension or module, and a module its ring
OPTIONAL_HANDLES = (LatticeReport, SubmoduleLattice)
SPLIT_HANDLES = ((Extension, LatticeReport), (FiniteRing, FiniteModule))


def split_handles(fn) -> list[str]:
    """The ways fn takes one structure in two pieces, from its resolved
    parameter types: an optional lattice parameter, or a structure beside
    the context it holds."""
    found, taken = [], set()
    for param, hint in typing.get_type_hints(fn).items():
        if param == "return":
            continue
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        classes = typing.get_args(hint) if union else (hint,)
        taken.update(classes)
        if type(None) in classes:
            found += [f"{param}: Optional[{c.__name__}]" for c in classes if c in OPTIONAL_HANDLES]
    found += [f"{a.__name__} with {b.__name__}" for a, b in SPLIT_HANDLES if a in taken and b in taken]
    return found


def test_scan_finds_structures_split_in_two():
    def with_report(ext: Extension, report: Optional[LatticeReport] = None) -> bool:
        pass

    def with_lattice(m: FiniteModule, lat: "SubmoduleLattice | None" = None) -> bool:
        pass

    def with_ring(ring: FiniteRing, m: FiniteModule) -> Optional[LatticeReport]:
        pass

    def whole(report: LatticeReport, m: FiniteModule) -> Extension:
        pass

    assert [split_handles(fn) for fn in (with_report, with_lattice, with_ring, whole)] == [
        ["report: Optional[LatticeReport]", "Extension with LatticeReport"],
        ["lat: Optional[SubmoduleLattice]"],
        ["FiniteRing with FiniteModule"],
        [],
    ]


def package_functions() -> dict:
    """module.qualname -> function, for the functions and methods written in
    the modules of the package; a dataclass's generated __init__ lists its
    fields, not a call's arguments, and is left out."""
    found = {}
    for name in sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"ringlat.{name}")
        for fn in annotated_objects(module):
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                found[f"{name}.{fn.__qualname__}"] = fn
    return found


def test_each_structure_is_passed_whole():
    scanned = package_functions()
    assert {"lattice.classify_minimal", "modules.idealize", "closures.diagonal_into_factors"} <= set(scanned)
    assert {name: split_handles(fn) for name, fn in scanned.items() if split_handles(fn)} == {}


def returns_extension_in_tuple(fn) -> bool:
    """fn's resolved return type is a tuple holding an Extension, at any
    depth of its type arguments."""
    hint = typing.get_type_hints(fn).get("return")

    def holds(h) -> bool:
        return h is Extension or any(holds(a) for a in typing.get_args(h))

    return typing.get_origin(hint) is tuple and holds(hint)


def test_scan_finds_an_extension_returned_in_a_tuple():
    def pair() -> tuple[Extension, FiniteRing]:
        pass

    def nested() -> "tuple[int, Optional[Extension]]":
        pass

    def alone() -> Extension:
        pass

    def listed() -> list[Extension]:
        pass

    def unannotated():
        pass

    assert [returns_extension_in_tuple(fn) for fn in (pair, nested, alone, listed, unannotated)] == [
        True, True, False, False, False]


def test_an_extension_is_returned_alone():
    scanned = package_functions()
    assert {"modules.idealize", "closures.diagonal_into_factors"} <= set(scanned)
    assert sorted(name for name, fn in scanned.items() if returns_extension_in_tuple(fn)) == []


def class_fields(source: str, cls: str) -> list[str]:
    """The names annotated in the body of the top-level class cls."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [s.target.id for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    raise LookupError(cls)


def test_scan_finds_class_fields():
    source = ("class A:\n    x: int\n    y: str = ''\n    z = 3\n"
              "    def f(self) -> int:\n        w: int = 1\n        return w\n"
              "class B:\n    q: int\n")
    assert class_fields(source, "A") == ["x", "y"]
    assert class_fields(source, "B") == ["q"]


def test_an_extension_is_its_embedding():
    assert class_fields((PACKAGE / "lattice.py").read_text(), "Extension") == ["embed"]


def test_a_poset_is_its_nodes_and_covers():
    # the chain data is a cached pass over the covers, not a stored field
    assert class_fields((PACKAGE / "lattice.py").read_text(), "Poset") == ["nodes", "hasse_edges"]


def parser_builds(sources: dict[str, str]) -> list[str]:
    """module.scope: callee for each call of _build_parser or of an
    ArgumentParser in the sources (module name -> source); the scope is the
    innermost enclosing function or lambda, or <module>."""
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Lambda):
                inner = "<lambda>"
            elif isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in ("_build_parser", "ArgumentParser"):
                    found.append(f"{module}.{scope}: {name}")
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_parser_builds():
    sources = {
        "cli": ("import argparse\n"
                "def _build_parser():\n    return argparse.ArgumentParser(prog='x')\n"
                "_PARSER = _build_parser()\n"
                "def main(argv):\n    return _build_parser().parse_args(argv)\n"),
        "other": ("from argparse import ArgumentParser\n"
                  "LATER = lambda: ArgumentParser()\n"
                  "class C:\n    def m(self):\n        return ArgumentParser()\n"),
    }
    assert parser_builds(sources) == [
        "cli.<module>: _build_parser", "cli._build_parser: ArgumentParser",
        "cli.main: _build_parser", "other.<lambda>: ArgumentParser", "other.m: ArgumentParser"]


def test_the_parser_is_built_once_at_import():
    # a parser built per call cost 1.5 ms of every cli.main call
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert parser_builds(sources) == ["cli.<module>: _build_parser", "cli._build_parser: ArgumentParser"]


def frozen_value_dataclasses(source: str) -> list[str]:
    """The classes of source declared @dataclass(frozen=True) without
    eq=False: frozen records that compare by value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            fn = getattr(d, "func", None)
            if getattr(fn, "id", getattr(fn, "attr", None)) != "dataclass":
                continue
            kw = {k.arg: getattr(k.value, "value", None) for k in d.keywords}
            if kw.get("frozen") is True and kw.get("eq", True) is not False:
                found.append(node.name)
    return sorted(found)


def test_scan_finds_a_frozen_value_dataclass():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Value:\n    x: int\n"
              "@dataclasses.dataclass(frozen=True, repr=False)\nclass Also:\n    x: int\n"
              "@dataclass(frozen=True, eq=False)\nclass Identity:\n    x: int\n"
              "@dataclass\nclass Mutable:\n    x: int\n")
    assert frozen_value_dataclasses(source) == ["Also", "Value"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_value_records_are_named_tuples(module):
    # each frozen dataclass ran exec on 5-6 generated methods at import, about
    # 1.2 ms a class against 0.12 ms for a NamedTuple
    assert frozen_value_dataclasses((PACKAGE / module).read_text()) == []


def value_records() -> list[type]:
    """The NamedTuple classes the modules of the package define."""
    found = []
    for name in sorted(p.stem for p in PACKAGE.glob("*.py")):
        module = importlib.import_module(f"ringlat.{name}")
        found += [obj for obj in vars(module).values()
                  if inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                  and obj.__module__ == module.__name__]
    return found


RECORDS = value_records()


def test_value_records_are_found():
    names = {f"{c.__module__}.{c.__name__}" for c in RECORDS}
    assert {"ringlat.dsl.IntF", "ringlat.rings._PolyLayout", "ringlat.verify.CheckResult"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_a_value_record_is_immutable(cls):
    # as frozen=True guaranteed: no field can be set and no attribute added
    record = cls(*[None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.added = 1


ORACLE = ("closure_mask", "extend_closure_mask")


def oracle_reads(sources: dict[str, str], oracle: tuple[str, ...] = ORACLE) -> list[str]:
    """module.scope: name for each read of an oracle function (ORACLE
    unless given) in the sources (module name -> source), as a name, an
    attribute or an import, outside the oracle's own definitions; the scope
    is the innermost enclosing function, or <module>."""
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in oracle:
                    continue
                inner = child.name
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                found.append((module, scope, child.id))
            elif isinstance(child, ast.Attribute):
                found.append((module, scope, child.attr))
            elif isinstance(child, ast.ImportFrom):
                found.extend((module, scope, a.name) for a in child.names)
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return sorted(f"{m}.{scope}: {name}" for m, scope, name in found if name in oracle)


def test_scan_finds_oracle_reads():
    sources = {
        "rings": ("def extend_closure_mask(order):\n    return order\n"
                  "def closure_mask(order):\n    return extend_closure_mask(order)\n"),
        "ideals": "from .rings import closure_mask\ndef f(n):\n    return closure_mask(n)\n",
        "verify": "from . import rings as rg\ndef check(n):\n    return rg.extend_closure_mask(n)\n",
        "other": "closure_mask = None\nclosure = 3\ndef g():\n    return closure\n",
    }
    assert oracle_reads(sources) == [
        "ideals.<module>: closure_mask", "ideals.f: closure_mask", "verify.check: extend_closure_mask"]


def test_only_the_lattice_certificate_reads_the_oracle():
    # the pair closure checks the sumset kernel, so no production path may use it
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert oracle_reads(sources) == [
        "verify.lattice_certificate: closure_mask", "verify.lattice_certificate: extend_closure_mask"]


def test_scan_finds_poset_oracle_calls():
    sources = {
        "lattice": ("def poset_structure(masks):\n    return masks\n"
                    "def report(masks):\n    return poset_structure(masks)\n"),
        "modules": "from . import lattice as lt\ndef lat(m):\n    return lt.poset_structure(m)\n",
        "verify": "from .lattice import poset_structure\ndef check(m):\n    return poset_structure(m)\n",
    }
    assert oracle_reads(sources, ("poset_structure",)) == [
        "lattice.report: poset_structure", "modules.lat: poset_structure",
        "verify.<module>: poset_structure", "verify.check: poset_structure"]


def test_only_verify_reads_the_poset_oracle():
    # the Hasse edges come from the join closure (rings.ClosedSets), and
    # poset_structure, which finds them from the inclusion order, checks them
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [r for r in oracle_reads(sources, ("poset_structure",)) if not r.startswith("verify.")] == []
    assert "verify.check_hasse_edges: poset_structure" in oracle_reads(sources, ("poset_structure",))


def nested_calls(sources: dict[str, str], outer: str, inner: str) -> list[str]:
    """module.function for each function with an outer(...) call whose
    argument holds an inner(...) call, or a name the function binds to an
    expression holding one."""

    def name_of(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def holds(node, names):
        return any((isinstance(n, ast.Call) and name_of(n) == inner)
                   or (isinstance(n, ast.Name) and n.id in names) for n in ast.walk(node))

    found = set()
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(fn))
            bound = {t.id for n in nodes if isinstance(n, ast.Assign) and holds(n.value, ())
                     for target in n.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            if any(isinstance(n, ast.Call) and name_of(n) == outer and any(holds(a, bound) for a in n.args)
                   for n in nodes):
                found.add(f"{module}.{fn.name}")
    return sorted(found)


def test_scan_finds_a_field_test_of_a_quotient():
    sources = {
        "crt": ("def direct(ring, i):\n    return is_field(quotient(ring, i).ring)\n"
                "def bound(ring, i):\n    q = quotient(ring, i).ring\n    return is_field(q)\n"
                "def spectral(ring, i):\n    return i in spectrum(ring).primes\n"),
        "verify": "def oracle(ring, i):\n    return rg.is_field(rg.quotient(ring, i).ring)\n",
        "other": "def plain(ring):\n    q = ring\n    return is_field(q) and quotient(ring, ())\n",
    }
    assert nested_calls(sources, "is_field", "quotient") == ["crt.bound", "crt.direct", "verify.oracle"]


def test_maximality_is_read_from_the_spectrum():
    # an ideal is maximal when it is a prime of the ring's cached spectrum;
    # only verify keeps the quotient-is-a-field test, as its oracle
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert nested_calls(sources, "is_field", "quotient") == ["verify.criterion_04_trichotomy"]


def test_scan_finds_an_interval_enumerated_again():
    sources = {
        "modules": ("def direct(bij, i):\n"
                    "    return intermediate_algebras(upper_extension(bij.report.nodes[i]))\n"
                    "def bound(rep, i):\n    up = lt.upper_extension(rep.nodes[i])\n"
                    "    return lt.intermediate_algebras(up).count\n"
                    "def read(rep, i):\n    return rep.above(i).count\n"),
        "other": ("def lower(rep, i):\n    return intermediate_algebras(lower_extension(rep.nodes[i]))\n"
                  "def apart(rep, i):\n    upper_extension(rep.nodes[i])\n"
                  "    return intermediate_algebras(rep.extension)\n"),
    }
    assert nested_calls(sources, "intermediate_algebras", "upper_extension") == [
        "modules.bound", "modules.direct"]


def test_an_interval_is_read_off_the_lattice_it_lies_in():
    # the lattice above a node of a LatticeReport is the node's up-set
    # (Poset.above), so no module enumerates it a second time
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert nested_calls(sources, "intermediate_algebras", "upper_extension") == []


def test_scan_finds_a_quotient_module_enumerated():
    sources = {
        "lattice": ("def direct(ext):\n    return enumerate_submodules(*cosets(ext.top.add, ext.image))\n"
                    "def bound(ext, add, action):\n    coset_of, reps = rg.cosets(ext.top.add, ext.image)\n"
                    "    return rg.enumerate_submodules(add, action, coset_of[ext.top.zero])\n"
                    "def stack(ext, a):\n    _, reps = cosets(ext.top.add, ext.image)\n"
                    "    return _add_cosets_rows(ext.top.add, a, reps)\n"),
        "ideals": "def ideals(ring):\n    return enumerate_submodules(ring.add, ring.mul, ring.zero)\n",
    }
    assert nested_calls(sources, "enumerate_submodules", "cosets") == ["lattice.bound", "lattice.direct"]


def test_no_quotient_module_is_enumerated():
    # Delta0 holds when tu lies in R + Rt + Ru for all t, u, read off the
    # span stack R + Rt; the submodules of S/R are not enumerated
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert nested_calls(sources, "enumerate_submodules", "cosets") == []


def row_twins(sources: dict[str, str]) -> list[str]:
    """module: f, f_rows for each function f that a module (name -> source)
    defines next to a function f_rows, a one-row path kept beside its batched
    kernel."""
    found = []
    for module, source in sources.items():
        names = {n.name for n in ast.walk(ast.parse(source))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        found += [f"{module}: {n[:-len('_rows')]}, {n}" for n in names
                  if n.endswith("_rows") and n[:-len("_rows")] in names]
    return sorted(found)


def test_scan_finds_row_twins():
    sources = {
        "rings": ("def adjoin(r, b, s):\n    return b\n"
                  "def adjoin_rows(r, b, s):\n    return b\n"
                  "def _add_cosets(a, x):\n    return a\n"
                  "def _add_cosets_rows(a, x):\n    return a\n"
                  "def span_rows(a):\n    return a\n"),
        "lattice": "from .rings import adjoin_rows\ndef adjoin(r):\n    return adjoin_rows(r)\n",
        "other": "class C:\n    def f(self):\n        pass\n    def f_rows(self):\n        pass\n",
    }
    assert row_twins(sources) == ["other: f, f_rows", "rings: _add_cosets, _add_cosets_rows",
                                  "rings: adjoin, adjoin_rows"]


def test_one_kernel_per_job():
    # single closures are one-row calls of the batched kernels
    assert row_twins({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def full_gather_minima(sources: dict[str, str], labeller: str = "_coset_labels") -> list[str]:
    """module.scope for each .min(axis=1) taken on a subscript of an add
    table (add[...], ring.add[...]) in the sources (module name -> source),
    outside the function labeller: a coset minimum found by gathering whole
    cosets.  The scope is the innermost enclosing function, or <module>."""
    found = []

    def is_add_subscript(node):
        return isinstance(node, ast.Subscript) and (
            getattr(node.value, "id", None) == "add" or getattr(node.value, "attr", None) == "add")

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == labeller:
                    continue
                inner = child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "min" and is_add_subscript(child.func.value)
                  and any(k.arg == "axis" and getattr(k.value, "value", None) == 1 for k in child.keywords)):
                found.append(f"{module}.{scope}")
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_full_gather_minima():
    sources = {
        "rings": ("def cosets(add, sub):\n    least = add[:, sub].min(axis=1)\n    return least\n"
                  "def _coset_labels(add, a, x):\n    return add[x][:, a].min(axis=1)\n"
                  "def leaders(ring, gens, members):\n"
                  "    return ring.add[gens[:, None], members].min(axis=1)\n"),
        "lattice": ("def span(top, img):\n    lo = top.add[:, img].min(axis=0)\n"
                    "    return top.mul[:, img].min(axis=1), lo, top.add[:, img].max(axis=1)\n"),
        "modules": "least = add[:, sub].min(axis=1)\n",
    }
    assert full_gather_minima(sources) == ["modules.<module>", "rings.cosets", "rings.leaders"]


def test_coset_minima_come_from_the_labeller():
    # cosets and the coset leaders of a lattice level are labelled by one
    # mechanism (rings._coset_labels), which gathers few cosets per coset;
    # no module takes each row's minimum of a whole block of the add table
    assert full_gather_minima({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def round_loops(sources: dict[str, str], rounds: str = "_coset_rounds") -> list[str]:
    """module.function for each function of the sources (module name ->
    source), other than the function rounds, that calls both _cells and
    _gather, plainly or as an attribute: a round loop of its own."""
    found = set()
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name != rounds:
                called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                          for n in ast.walk(fn) if isinstance(n, ast.Call)}
                if {"_cells", "_gather"} <= called:
                    found.add(f"{module}.{fn.name}")
    return sorted(found)


def test_scan_finds_round_loops():
    # the two loops the kernels kept before they shared their rounds
    sources = {
        "rings": ("def _coset_rounds(add, a, x, covered):\n    xr, xc = _cells(x)\n"
                  "    yield from _gather(add, xc, xr, a)\n"
                  "def _coset_labels(add, a, x):\n    xr, xc = _cells(x)\n"
                  "    for block, sums in _gather(add, xc, xr, a):\n        pass\n"
                  "def _add_cosets_rows(add, a, x, members=None):\n    xr, xc = _cells(x & ~a)\n"
                  "    while xr.size:\n        for block, sums in _gather(add, xc, xr, members):\n"
                  "            pass\n"
                  "def adjoin_rows(ring, bases, s):\n    members = _row_members(bases)\n"
                  "    return list(_gather(ring.mul, s, s, members))\n"),
        "lattice": ("def tclosed(top, stack):\n    rows, cols = rg._cells(stack)\n"
                    "    return list(rg._gather(top.add, cols, rows, stack))\n"),
    }
    assert round_loops(sources) == ["lattice.tclosed", "rings._add_cosets_rows", "rings._coset_labels"]


def test_one_round_loop():
    # the sumset kernel and the coset labeller consume the rounds of
    # rings._coset_rounds and differ only in what they write per block
    assert round_loops({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def int32_names(sources: dict[str, str]) -> list[str]:
    """module: line for each attribute int32 (np.int32, numpy.int32) and each
    dtype string "int32" in the sources (module name -> source)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr == "int32") or (
                    isinstance(node, ast.Constant) and node.value == "int32"):
                found.append(f"{module}: {node.lineno}")
    return sorted(found)


def test_scan_finds_int32():
    sources = {
        "rings": ("import numpy as np\nELEMENT = np.int16\n"
                  "def f(n):\n    return np.zeros(n, dtype=np.int32)\n"),
        "modules": "import numpy\nx = numpy.int32(3)\ny = numpy.zeros(2, dtype='int32')\n",
        "other": "import numpy as np\ncount = np.zeros(2, dtype=np.int64)\nint32 = 'name'\n",
    }
    assert int32_names(sources) == ["modules: 2", "modules: 3", "rings: 4"]


def test_one_element_dtype():
    # tables, maps and lookups hold rings.ELEMENT; counters and keys stay int64/intp
    assert int32_names({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def called_names(source: str, function: str) -> list[str]:
    """The names, plain or as an attribute, that the top-level function
    called function of source calls, in order of appearance."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == function:
            found += [getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                      for n in ast.walk(fn) if isinstance(n, ast.Call)]
    return sorted(found)


def test_scan_finds_calls_in_a_function():
    source = ("def poly_quotient(ring, monic):\n    free = FiniteRing(ring)\n"
              "    qr = rg.quotient(free, _quotient_label(monic))\n    return compose(qr, qr)\n"
              "def quotient(ring, ideal):\n    return cosets(ring, ideal)\n")
    assert called_names(source, "poly_quotient") == ["FiniteRing", "_quotient_label", "compose", "quotient"]
    assert called_names(source, "quotient") == ["cosets"]
    assert called_names(source, "product") == []


def test_a_polynomial_quotient_divides_on_its_layout():
    # the relation ideal is the R-span of the shifts x^i r, and the quotient's
    # tables are gathered on the layout: no free ring is divided by quotient
    # and no hom into it is composed
    called = called_names((PACKAGE / "rings.py").read_text(), "poly_quotient")
    assert "sum_of_orbits" in called and not {"quotient", "compose"} & set(called)


def counts_off_submodules(sources: dict[str, str]) -> list[str]:
    """module.function for each function of the sources (module name ->
    source) that reads .count directly off a submodules(...) call."""
    found = set()
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Attribute) and n.attr == "count" and isinstance(n.value, ast.Call)
                    and (getattr(n.value.func, "id", None) or getattr(n.value.func, "attr", None)) == "submodules"
                    for n in ast.walk(fn)):
                found.add(f"{module}.{fn.name}")
    return sorted(found)


def test_scan_finds_counts_off_submodules():
    sources = {
        "modules": "def interval(bij, q):\n    return IntervalReport(1, 2, submodules(q).count)\n",
        "verify": "def check(m):\n    return md.submodules(m).count == 4\n",
        "other": ("def kept(m):\n    lat = submodules(m)\n    return lat.count, submodules(m).length\n"
                  "def counted(m):\n    return len(enumerate_submodules(m.add, m.action, m.zero))\n"),
    }
    assert counts_off_submodules(sources) == ["modules.interval", "verify.check"]


def test_a_submodule_count_builds_no_poset():
    # nu(M/N) is the number of closed sets the enumeration finds
    # (modules.length_and_count); a lattice built only to be counted is waste
    assert counts_off_submodules({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


NUMPY_HELPERS = ("ix_", "flatnonzero", "array_equal")


def numpy_helper_calls(sources: dict[str, str], helpers: tuple[str, ...] = NUMPY_HELPERS) -> list[str]:
    """module: line for each use of a helper numpy writes in Python (np.ix_,
    np.flatnonzero, np.array_equal, read off np or numpy) and each import of
    one from numpy, in the sources (module name -> source)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr in helpers
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")) or (
                    isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    and any(a.name in helpers for a in node.names)):
                found.append(f"{module}: {node.lineno}")
    return sorted(found)


def test_scan_finds_python_level_numpy_helpers():
    sources = {
        "rings": ("import numpy as np\n"
                  "def quotient(add, reps, proj):\n    return proj[add[np.ix_(reps, reps)]]\n"
                  "def distinct(mask):\n    return np.flatnonzero(mask)\n"),
        "lattice": "import numpy\nsame = numpy.array_equal\nfrom numpy import flatnonzero, zeros\n",
        "other": ("import numpy as np\n"
                  "def kept(t, a, b, mask, x, y):\n"
                  "    return t[a[:, None], b], mask.nonzero()[0], (x == y).all(), rows.ix_\n"),
    }
    assert numpy_helper_calls(sources) == ["lattice: 2", "lattice: 3", "rings: 3", "rings: 5"]


def test_no_python_level_numpy_helpers():
    # np.ix_, np.flatnonzero and np.array_equal each run 2-5 us of Python
    # around the one ndarray operation they stand for, which every small
    # query pays many times over: t[a[:, None], b], mask.nonzero()[0] and
    # (a == b).all() on arrays of one shape
    assert numpy_helper_calls({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


NODE_BUILDERS = ("realize", "subset_ring", "RingHom", "lower_extension", "upper_extension")


def builder_calls(source: str, builders: tuple[str, ...] = NODE_BUILDERS) -> list[str]:
    """name: line for each call of a builder, plain or as an attribute, in
    source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in builders:
                found.append(f"{name}: {node.lineno}")
    return sorted(found)


def test_scan_finds_builder_calls():
    source = ("def segments(dec):\n    real = lt.realize(dec.top)\n"
              "    ring, lookup = subset_ring(real.ring, elems, one, 'x')\n"
              "    return Extension(RingHom(ring, real.ring, lookup))\n"
              "def kept(ext, mask):\n    realize = RingHom\n    return interval_is_subintegral(ext, mask, mask)\n")
    assert builder_calls(source) == ["RingHom: 4", "realize: 2", "subset_ring: 3"]


def test_the_chain_is_checked_on_the_tops_tables():
    # the four chain invariants read the top's tables and the node masks;
    # the realized segments are the tests' oracle (conftest.chain_segments)
    assert builder_calls((PACKAGE / "closures.py").read_text()) == []


PRODUCT_BUILDERS = ("product", "pair_homs")


def calls_outside(source: str, allowed: str, names: tuple[str, ...] = PRODUCT_BUILDERS) -> list[str]:
    """scope: name for each call of one of names, plain or as an attribute,
    in source, whose innermost enclosing function is not named allowed; the
    scope is that function, or <module>."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in names and scope != allowed:
                    found.append(f"{scope}: {name}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_product_builds_outside_the_realizer():
    source = ("class CrtExtension:\n    @cached_property\n    def extension(self):\n"
              "        pr = product(self.factors)\n        return Extension(pair_homs(self.base, pr, self.maps))\n"
              "def make_crt(ring, ideals):\n    pr = rg.product(qs)\n"
              "    def inner():\n        return pair_homs(ring, pr, maps)\n"
              "    return product_order(orders), product_index(orders, maps)\n"
              "TOP = product([ring])\n")
    assert calls_outside(source, "extension") == ["<module>: product", "inner: pair_homs", "make_crt: product"]


def test_a_crt_top_is_read_off_its_factors():
    # make_crt reads the conductor, its ideal check and the injectivity off
    # the quotients' tables; the top's tables are built only when
    # CrtExtension.extension is read
    assert calls_outside((PACKAGE / "crt.py").read_text(), "extension") == []


ADDITIVE_CHECKS = (("ideals", "product_conductor"), ("rings", "_is_valid"))


def whole_axis_reads(sources: dict[str, str], checks: tuple[tuple[str, str], ...] = ADDITIVE_CHECKS) -> list[str]:
    """module.function: line for each read, inside one of the functions that
    checks names as (module, function), methods included, of a table (add[...],
    ring.mul[...]) at a whole-axis slice, and each call of product_table_rows
    without its columns, in the sources (module name -> source)."""
    found = []
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (module, fn.name) not in checks:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and (
                        getattr(node.value, "id", None) or getattr(node.value, "attr", None)) in ("add", "mul"):
                    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
                    whole = any(isinstance(i, ast.Slice) and i.lower is i.upper is i.step is None for i in index)
                elif isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "product_table_rows":
                    whole = len(node.args) < 3 and not any(k.arg == "cols" for k in node.keywords)
                else:
                    continue
                if whole:
                    found.append(f"{module}.{fn.name}: {node.lineno}")
    return sorted(found)


def test_scan_finds_whole_axis_reads():
    # the two checks as they read every element of the ring or the top
    sources = {
        "ideals": ("def product_conductor(base, factors, parts, image_mask):\n"
                   "    inside = [image_mask[r] for r in product_table_rows(muls, parts)]\n"
                   "    ok = [held[r] for r in rg.product_table_rows(adds, at, at)]\n"
                   "    return product_table_rows(muls, at, cols=cols), top.mul[:, x[:, None]]\n"
                   "def colon(a, b):\n    return ring.mul[:, bi]\n"),
        "rings": ("class Ideal:\n    def _is_valid(self):\n        m, ring = self.mask, self.ring\n"
                  "        return m[ring.add[idx[:, None], idx]].all() and m[self.ring.mul[:, idx]].all()\n"
                  "    def mask(self):\n        return mul[:]\n"
                  "def _is_valid(ring, idx, gens):\n"
                  "    return ring.mul[gens[:, None], idx], mul[1:, idx], add[idx, :]\n"),
    }
    assert whole_axis_reads(sources) == ["ideals.product_conductor: 2", "ideals.product_conductor: 4",
                                         "rings._is_valid: 4", "rings._is_valid: 8"]


def test_additive_checks_read_generators():
    # a subgroup holds every sum of what it holds, so the conductor and the
    # absorption of an ideal are decided on the columns of the additive
    # generators of the top or the ring, not on all of its elements
    assert whole_axis_reads({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []
