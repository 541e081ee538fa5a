import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wordmaps"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads; a name listed in
    ``__all__`` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def _unread_private_names(trees: dict) -> list[str]:
    """The module-level private names (one leading underscore) that no
    module of ``trees``, a map from module name to its tree, reads as a
    name or an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name} (line {node.lineno})" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, re\nfrom .a import b, c as d\n"
                     "__all__ = ['b']\nre.compile(d)\n")
    assert _unused_imports(tree) == ["os (line 2)"]


def test_every_private_name_is_read():
    # a helper that a simplification leaves without callers fails here
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert _unread_private_names(trees) == []


def test_the_guard_sees_an_unread_private_name():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_x: int = 1\n\ndef _used():\n    return _LIMIT\n\ndef _left():\n    pass\n"),
        "b": ast.parse("from . import a\n\nclass _Box:\n    pass\n\nprint(a._used(), _Box)\n"),
    }
    assert _unread_private_names(trees) == ["a._x (line 2)", "a._left (line 7)"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level modules a module imports, relative imports left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # each @dataclass costs its import about half a millisecond of generated
    # code; errors.Record does the same work without it
    assert "dataclasses" not in _imported_modules(ast.parse(path.read_text(), str(path)))


def test_the_guard_sees_a_dataclasses_import():
    tree = ast.parse("import os.path\nfrom dataclasses import dataclass\nfrom . import errors\n")
    assert _imported_modules(tree) == {"os", "dataclasses"}
