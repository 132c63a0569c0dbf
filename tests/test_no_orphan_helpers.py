"""Every function and method of the library has a caller in the library,
and the brute-force references stay outside it.

A function counts as referenced when its name appears as a name, an
attribute, an imported name or a string constant in src/, outside
`reference.py` and outside the body of its own definition; a method only
as an attribute or a string constant, so a local variable of the same
name does not hide it.  Tests do not count as callers: a helper only
tests call belongs in `reference.py` or nowhere.  Dunder methods, the defs
of `reference.py` and the names in `liftedcodes.__all__` are exempt.

Matching is by name, so a method named like a numpy function, an ndarray
or Generator method or another def of src/ (`copy`, `inverse`) would be
seen through the other name's callers.  Each such method is pinned in
SHARED_NAMES to a def of the library that calls it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import liftedcodes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liftedcodes"
REFERENCE = PACKAGE / "reference.py"

# method -> the library def ("module.qualname") that calls it, for every
# method whose name numpy or another def of src/ also uses
SHARED_NAMES = {
    "FiniteField.add": "gf.poly_mulmod",
    "FiniteField.pow": "selftest._suite_field_identities",
    "ExtensionIso.random": "analysis._draw_iso",
    "Support.points": "geometry.Support.__getitem__",
    "Support.positions": "analysis.information_set_check",
    "LineEmbedding.points": "decode.query_gen",
    "LineEmbedding.positions": "decode._draw_line",
}


def _references(tree, methods=False):
    """(name, line) of every reference in tree; with methods=True only
    attributes and string constants, the two ways to reach a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        elif methods:
            continue
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _defs(tree, dunders=False):
    """(qualname, node) of the module-level functions and the methods of
    module-level classes, dunder methods only with dunders=True."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (dunders or not (sub.name.startswith("__")
                                             and sub.name.endswith("__"))))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _library():
    return {path: _parse(path) for path in PACKAGE.glob("*.py") if path != REFERENCE}


def test_every_module_level_def_is_referenced():
    library = _library()
    defs = [(path, qualname, node) for path, tree in library.items()
            for qualname, node in _defs(tree) if node.name not in liftedcodes.__all__]
    assert defs
    refs = {}
    for kind in ("function", "method"):
        found = refs[kind] = {}
        for path, tree in library.items():
            for name, line in _references(tree, methods=kind == "method"):
                found.setdefault(name, []).append((path, line))
    orphans = [f"{path.name}:{node.lineno} {qualname}" for path, qualname, node in defs
               if not any(p != path or not node.lineno <= line <= node.end_lineno
                          for p, line in refs["method" if "." in qualname else "function"]
                          .get(node.name, ()))]
    assert orphans == []


def test_methods_with_shared_names_are_pinned_to_a_caller():
    trees = {path.stem: _parse(path) for path in PACKAGE.glob("*.py")}
    defs = {f"{module}.{qualname}": node for module, tree in trees.items()
            for qualname, node in _defs(tree, dunders=True)}
    foreign = set(dir(np)) | set(dir(np.ndarray)) | set(dir(np.random.Generator))
    shared = sorted(
        qualname.partition(".")[2] for qualname, node in defs.items()
        if qualname.count(".") == 2 and not node.name.startswith("__")
        and (node.name in foreign
             or any(other.name == node.name for q, other in defs.items() if q != qualname)))
    assert shared == sorted(SHARED_NAMES)
    for method, caller in SHARED_NAMES.items():
        assert not caller.startswith("reference."), caller
        called = {name for name, _ in _references(defs[caller], methods=True)}
        assert method.rpartition(".")[2] in called, (method, caller)


def test_every_reference_def_is_reached_from_a_test_or_selftest():
    # reachable: named in tests/ or selftest.py, or in the body of a
    # reachable def of reference.py other than itself
    roots = {name for path in [*(ROOT / "tests").glob("*.py"), PACKAGE / "selftest.py"]
             for name, _ in _references(_parse(path))}
    defs = {node.name: node for _, node in _defs(_parse(REFERENCE))}
    reached = set()
    frontier = [name for name in defs if name in roots]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        node = defs[name]
        frontier += [ref for ref, _ in _references(node) if ref in defs and ref != name]
    assert sorted(set(defs) - reached) == []


def test_only_selftest_imports_reference():
    importers = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if "liftedcodes.reference" in names:
                importers.append(path.name)
    assert importers == ["selftest.py"]


def test_importing_the_library_leaves_reference_unloaded():
    code = ("import sys, liftedcodes, liftedcodes.cli; "
            "print('liftedcodes.reference' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out == "False\n"
