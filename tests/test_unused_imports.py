"""No module of ``mcred`` imports a name it never uses, and no private
helper of ``mcred`` goes unreferenced.

A name counts as used when the module reads it anywhere (a bare name, or
the root of an attribute chain) or lists it in ``__all__``; ``from
__future__`` imports are directives, not names.  A private helper is a
module-level or class-level ``_name`` (not a dunder) that a module of
``mcred`` defines by ``def``, ``class`` or assignment; it counts as
referenced when some module reads it, as a bare name or as an attribute,
outside its own definition (an import alone is no reference).  The scans
are stdlib :mod:`ast` only.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(body) -> list:
    """``(name, first line, last line)`` of every private ``def``, ``class``
    or assigned name among the statements ``body``."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, node.lineno, node.end_lineno) for name in names if _private(name)]
    return out


def uncalled_private(sources: dict) -> list[str]:
    """``"module.name (line k)"`` for every private helper of the modules
    ``{module: source}`` that no module reads outside its own definition."""
    defined, reads = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, *d) for d in _defined(tree.body)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined += [(module, *d) for d in _defined(cls.body)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.attr, node.lineno))
    return [f"{module}.{name} (line {first})" for module, name, first, last in defined
            if not any(n == name and (m != module or not first <= line <= last)
                       for m, n, line in reads)]


def _sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (SRC / "leading.py").read_text()
    assert unused_imports(source + "import json\n") == [f"json (line {source.count(chr(10)) + 1})"]
    assert unused_imports("from __future__ import annotations\nimport os.path as p\n"
                          "from x import y\n__all__ = ['y']\n") == ["p (line 2)"]


def test_every_private_helper_is_referenced():
    assert uncalled_private(_sources()) == []


def test_the_scan_finds_a_private_helper_without_a_caller():
    sources = _sources()
    lines = sources["series"].count("\n")
    sources["series"] += ("def _materialise(tower, ram, prec, den, acc):\n"
                          "    return _materialise(tower, ram, prec, den, acc)\n")
    assert uncalled_private(sources) == [f"series._materialise (line {lines + 1})"]
    assert uncalled_private({"m": "class C:\n    _x = 1\n    def _f(self):\n"
                                  "        return self._f\n    def __len__(self):\n"
                                  "        return 0\n_y = C()._x\n"}) == ["m._y (line 7)", "m._f (line 3)"]
