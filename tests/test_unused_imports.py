"""No module of ``mcred`` imports a name it never uses.

A name counts as used when the module reads it anywhere (a bare name, or
the root of an attribute chain) or lists it in ``__all__``; ``from
__future__`` imports are directives, not names.  The scan is stdlib
:mod:`ast` only.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mcred"


def unused_imports(source: str) -> list[str]:
    """``"name (line k)"`` for every name ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (SRC / "leading.py").read_text()
    assert unused_imports(source + "import json\n") == [f"json (line {source.count(chr(10)) + 1})"]
    assert unused_imports("from __future__ import annotations\nimport os.path as p\n"
                          "from x import y\n__all__ = ['y']\n") == ["p (line 2)"]
