"""Static guards against dead code in the package, using only the stdlib ast.

Every name a module imports must be used in that module, and every top-level
private function or class must be referenced somewhere in the package outside
its own definition.  ``__init__`` only re-exports, so its imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncstat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    """Bare names under node; an attribute chain contributes its leftmost name."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _referenced(node: ast.AST) -> set[str]:
    """Bare names and attribute names under node, as module._name counts."""
    attrs = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
    return _names(node) | attrs


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem
)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = _imported(tree) - _names(tree)
    assert not unused, f"{path.stem} imports unused names: {sorted(unused)}"


def test_every_private_definition_is_referenced():
    trees = {p.stem: _tree(p) for p in MODULES}
    unreferenced = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # references inside the definition itself (recursion) do not count
            used = any(
                name in _referenced(other)
                for s, t in trees.items()
                for other in t.body
                if not (s == stem and other is node)
            )
            if not used:
                unreferenced.append(f"{stem}.{name}")
    assert not unreferenced, f"unreferenced private definitions: {unreferenced}"
