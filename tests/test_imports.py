"""Import hygiene: every name a library module imports is read somewhere in
that module, every name the package exports resolves, and every top-level
name is read somewhere in the package or exported. A deletion that leaves an
import behind, an export whose object is gone, or a helper that only tests
call fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import relbo

SRC = Path(relbo.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The console script of pyproject.toml's [project.scripts], as (module, name).
SCRIPTS = {("cli", "main")}


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports in ``source`` that it never loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_checker_finds_an_unread_import():
    source = "import os\nfrom math import pi, tau\nfrom __future__ import annotations\nx = pi\n"
    assert unread_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_every_export_resolves():
    missing = [name for name in relbo.__all__ if not hasattr(relbo, name)]
    assert missing == []


def _defined(stmt) -> set[str]:
    """The names a top-level statement binds, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def dead_names(sources: dict[str, str], keep: set[tuple[str, str]]) -> list[str]:
    """The top-level names of the modules in ``sources`` (module name ->
    source) that no module loads outside the statement defining them, and
    that are not in ``keep`` as (module, name). A load counts for the module
    that defines the name, or for the one it is imported from."""
    defined, loaded = set(), set()
    for module, source in sources.items():
        body = ast.parse(source).body
        own = {n for stmt in body for n in _defined(stmt)}
        origin = {
            a.asname or a.name: (node.module, a.name)
            for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for a in node.names
        }
        for stmt in body:
            bound = _defined(stmt)
            defined.update((module, n) for n in bound)
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                    continue
                if node.id in own and node.id not in bound:
                    loaded.add((module, node.id))
                elif node.id in origin:
                    loaded.add(origin[node.id])
    return sorted(f"{m}.{n}" for m, n in defined - loaded - keep)


def test_checker_finds_a_dead_name():
    sources = {
        "a": "X = 1\ndef f(): return f()\ndef g(): return X\nclass C: pass\n",
        "b": "from .a import g\nfrom math import pi\ndef h(): return g() + pi\n",
    }
    assert dead_names(sources, set()) == ["a.C", "a.f", "b.h"]
    assert dead_names(sources, {("a", "C"), ("a", "f"), ("b", "h")}) == []


def test_every_top_level_name_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    exported = {
        (getattr(relbo, name).__module__.rpartition(".")[2], name)
        for name in relbo.__all__
        if not name.startswith("__")
    }
    assert dead_names(sources, exported | SCRIPTS) == []
