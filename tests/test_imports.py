"""Every name a package module imports is read there or re-exported in `__all__`,
every name in a module's `__all__` is bound there, every module-level
private name is read by some package module, and importing the command line
loads none of the slow stdlib modules `dataclasses`, `inspect`, `typing` and
`hashlib`."""

import ast
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sgp"

# each costs milliseconds at every start of `sgp`, and no stdlib module sgp
# uses loads one of them (checked on 3.10 to 3.13); `hashlib` also loads
# OpenSSL, and only the commands that write files hash what they write
SLOW_MODULES = ("dataclasses", "inspect", "typing", "hashlib", "_hashlib")


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


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module an import statement of `source` names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = "import os.path, re as r\nfrom dataclasses import dataclass\nfrom . import x\n"
    assert imported_modules(source) == {"dataclasses", "os", "re"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_loads_no_slow_stdlib_module():
    # -S: without `site`, which may preload any module through a .pth file
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import sgp.cli; "
            f"print(*sorted(m for m in {SLOW_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    code_lines = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["code_lines"]
    source = ('"""Module."""\n\n# comment\nx = 1  # trailing\ndef f():\n'
              '    """Doc\n    string."""\n    return """not a\n docstring"""\n')
    assert code_lines(source) == 4  # x = 1, def f():, and the two lines of return
