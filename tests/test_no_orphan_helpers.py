"""Every module-level function in the package has a caller.

A name counts as referenced when it appears as a name, an attribute, an
imported name or a string constant anywhere in src/ or tests/, outside the
body of its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liftedcodes"


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


def test_every_module_level_def_is_referenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]}
    defs = [(path, node) for path in PACKAGE.glob("*.py") for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert defs
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    orphans = [f"{path.name}:{node.lineno} {node.name}" for path, node in defs
               if not any(p != path or not node.lineno <= line <= node.end_lineno
                          for p, line in refs.get(node.name, ()))]
    assert orphans == []
