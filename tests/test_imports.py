"""Every name a package module imports is read there or re-exported in `__all__`,
every name in a module's `__all__` is bound there, and every module-level
private name is read by some package module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgp"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that are never read and not exported."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = "import os, re\nfrom x import (a, b as c, d)\n__all__ = ['d']\nre.compile(a)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unbound_exports(source: str) -> list[str]:
    """Names listed in `__all__` that no top-level statement of the module binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_unbound_exports_are_found():
    source = ("from x import a\nimport y.z\nB = 1\ndef c():\n    pass\n"
              "__all__ = ['a', 'y', 'B', 'c', 'gone', 'z']\n")
    assert unbound_exports(source) == ["gone", "z"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """Module-level names that start with one underscore: defs, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private names that no module among `sources` reads."""
    defined, read = set(), set()
    for source in sources:
        defined |= private_definitions(source)
        read |= names_read(source)
    return sorted(defined - read)


def test_unread_private_names_are_found():
    a = "import re\n_TOKEN = re.compile('x')\n_USED = 1\ndef _helper():\n    return _USED\n"
    b = "from .a import _gone\nclass _Unused:\n    pass\n"
    assert unread_private_names([a, b]) == ["_TOKEN", "_Unused", "_helper"]


def test_no_unread_private_names():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []
