"""Static guards against dead code in the package, using only the stdlib ast.

Every name a module imports must be used in that module, every top-level
function or class that ``__init__`` does not export and every public method or
property must be referenced somewhere in the package outside its own
definition, and every defaulted parameter must be passed by some call in the
package.  ``__init__`` only re-exports, so its imports are exempt, and its
``__all__`` lists exactly what it imports from the package's own modules,
eagerly or under ``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import ncstat

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


def _counts(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each bare name and each attribute name occurs under node."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def test_every_public_definition_is_referenced():
    """Unexported top-level definitions and public methods need a package caller.

    A top-level function or class counts as used through a bare name or an
    attribute (module.name); a method or property only through an attribute
    (x.name).  References inside the definition itself do not count.
    """
    trees = {p.stem: _tree(p) for p in MODULES}
    exported = _imported(trees["__init__"])
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _counts(tree)
        names += n
        attrs += a
    unreferenced = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in exported:
                own_names, own_attrs = _counts(node)
                uses = names[node.name] + attrs[node.name]
                if uses - own_names[node.name] - own_attrs[node.name] <= 0:
                    unreferenced.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    if attrs[fn.name] - _counts(fn)[1][fn.name] <= 0:
                        unreferenced.append(f"{stem}.{node.name}.{fn.name}")
    assert not unreferenced, f"unreferenced public definitions: {unreferenced}"


def test_all_lists_exactly_the_imports():
    """Relative imports only: ``typing`` and ``importlib`` are not exports."""
    init = _tree(PACKAGE / "__init__.py")
    relative = [
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert sorted(ncstat.__all__) == sorted(relative)


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[int | None, str]]:
    """(positional index or None for keyword-only, name) of each defaulted parameter.

    Positional indices count from the first argument a caller writes, so a
    method's ``self`` is not counted.
    """
    positional = fn.args.posonlyargs + fn.args.args
    if is_method and positional:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [
        (None, a.arg)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    ]
    return out


def _passed(call: ast.Call, skip: int = 0) -> tuple[int, set[str], bool]:
    """Positional count past the first skip, keyword names, and whether a splat
    may pass anything."""
    splat = any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )
    return len(call.args) - skip, {k.arg for k in call.keywords if k.arg}, splat


def _definitions(tree: ast.Module):
    """(callee name, definition, is_method) for every function in a module.

    A constructor is called by its class name, so ``__init__`` is listed
    under that name.
    """
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    methods[id(fn)] = cls.name if fn.name == "__init__" else fn.name
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            yield methods.get(id(fn), fn.name), fn, id(fn) in methods


def test_every_defaulted_parameter_is_passed():
    """A defaulted parameter that no call in the package passes is a dead knob.

    Calls are matched to definitions by name (``f(...)`` or ``obj.f(...)``),
    and ``laws._once(f, *args, **kwargs)`` counts as the call ``f(*args,
    **kwargs)``; the console-script entry point ``cli.main(argv)`` is the one
    exemption.
    """
    trees = {p.stem: _tree(p) for p in MODULES}
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name:
                calls.setdefault(name, []).append(_passed(node))
            if name == "_once" and node.args and isinstance(node.args[0], ast.Name):
                calls.setdefault(node.args[0].id, []).append(_passed(node, skip=1))
    exempt = {"cli.main(argv)"}
    dead = []
    for stem, tree in trees.items():
        for name, fn, is_method in _definitions(tree):
            for index, arg in _defaulted(fn, is_method):
                knob = f"{stem}.{name}({arg})"
                if knob in exempt:
                    continue
                if not any(
                    splat or arg in kws or (index is not None and index < npos)
                    for npos, kws, splat in calls.get(name, ())
                ):
                    dead.append(knob)
    assert not dead, f"defaulted parameters no call passes: {dead}"
