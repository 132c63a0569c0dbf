"""Every function and method of the library has a caller in the library,
and the brute-force references stay outside it.

A name counts as referenced when it appears as a name, an attribute, an
imported name or a string constant in src/, outside `reference.py` and
outside the body of its own definition.  Tests do not count as callers:
a helper only tests call belongs in `reference.py` or nowhere.  Dunder
methods, the defs of `reference.py` and the names in `liftedcodes.__all__`
are exempt.  Matching is by name, so a method named like one that numpy
arrays or another class define (`copy`, `inverse`) is not seen.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import liftedcodes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liftedcodes"
REFERENCE = PACKAGE / "reference.py"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _defs(tree):
    """Module-level functions and the non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_level_def_is_referenced():
    library = {path: _parse(path) for path in PACKAGE.glob("*.py") if path != REFERENCE}
    defs = [(path, node) for path, tree in library.items() for node in _defs(tree)
            if node.name not in liftedcodes.__all__]
    assert defs
    refs = {}
    for path, tree in library.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    orphans = [f"{path.name}:{node.lineno} {node.name}" for path, node in defs
               if not any(p != path or not node.lineno <= line <= node.end_lineno
                          for p, line in refs.get(node.name, ()))]
    assert orphans == []


def test_every_reference_def_is_reached_from_a_test_or_selftest():
    # reachable: named in tests/ or selftest.py, or in the body of a
    # reachable def of reference.py other than itself
    roots = {name for path in [*(ROOT / "tests").glob("*.py"), PACKAGE / "selftest.py"]
             for name, _ in _references(_parse(path))}
    defs = {node.name: node for node in _defs(_parse(REFERENCE))}
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
