"""Import hygiene: every name a library module imports is read somewhere in
that module, and every name the package exports resolves. A deletion that
leaves an import behind, or an export whose object is gone, fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import relbo

SRC = Path(relbo.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
