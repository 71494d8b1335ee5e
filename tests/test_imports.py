"""Every module of the package uses each name it imports (the package
__init__ re-exports its imports, so it is not scanned), imports its package
siblings at module level, and every private module-level name of the
package is read by some module of it.  One size bound: the only per-call
bound parameter of the package is intermediate_algebras' max_order.  Every
annotation of the package resolves to a name its module binds.  One handle
per structure: no function takes a structure together with the context it
already holds, and an extension is its embedding alone."""

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


def test_each_structure_is_passed_whole():
    scanned, found = set(), {}
    for name in sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"ringlat.{name}")
        for fn in annotated_objects(module):
            # a dataclass's generated __init__ lists its fields, not a call's arguments
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                scanned.add(f"{name}.{fn.__qualname__}")
                if split_handles(fn):
                    found[f"{name}.{fn.__qualname__}"] = split_handles(fn)
    assert {"lattice.classify_minimal", "modules.idealize", "closures.diagonal_into_factors"} <= scanned
    assert found == {}


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
