"""No module of ``mcred`` imports a name it never uses, no private helper
of ``mcred`` goes unreferenced, and no private function of ``mcred`` has a
defaulted parameter that no call passes.

A name counts as used when the module reads it anywhere (a bare name, or
the root of an attribute chain) or lists it in ``__all__``; ``from
__future__`` imports are directives, not names.  A private helper is a
module-level or class-level ``_name`` (not a dunder) that a module of
``mcred`` defines by ``def``, ``class`` or assignment; it counts as
referenced when some module reads it, as a bare name or as an attribute,
outside its own definition (an import alone is no reference).  A defaulted
parameter of a private function (module-level, or a method without its
``self``) counts as passed when some call in ``mcred`` passes it by keyword
or by position, or passes ``*args`` or ``**kwargs``; a bare-name call means
the function of that name its module defines or imports, an attribute call
every private function of that name.  The scans are stdlib :mod:`ast` only.
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


def _parameters(fn, method: bool) -> tuple[list, list]:
    """``(positional, defaulted)``: the positional parameter names of ``fn``
    (without ``self`` or ``cls`` for a method) and the names that have a
    default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return (positional[1:] if method and not static else positional), defaulted


def unpassed_parameters(sources: dict) -> list[str]:
    """``"module.name(parameter) (line k)"`` for every defaulted parameter of
    a private function of the modules ``{module: source}`` that no call
    passes."""
    functions, calls, imports = {}, [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(tree.body, False)] + [(c.body, True) for c in tree.body
                                          if isinstance(c, ast.ClassDef)]
        for body, method in scopes:
            for fn in body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(fn.name):
                    functions[module, fn.name] = (fn.lineno, *_parameters(fn, method))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (
                        (node.module or "").rsplit(".", 1)[-1], alias.name)
            elif isinstance(node, ast.Call):
                calls.append((module, node))
    passed = {key: set() for key in functions}
    for module, call in calls:
        if isinstance(call.func, ast.Name):
            name = call.func.id
            key = (module, name) if (module, name) in functions else imports.get((module, name))
            targets = [key] if key in functions else []
        elif isinstance(call.func, ast.Attribute):
            targets = [key for key in functions if key[1] == call.func.attr]
        else:
            continue
        spread = (any(isinstance(a, ast.Starred) for a in call.args)
                  or any(k.arg is None for k in call.keywords))
        for key in targets:
            positional = functions[key][1]
            passed[key].update(positional if spread else positional[:len(call.args)])
            passed[key].update(k.arg for k in call.keywords)
    return [f"{module}.{name}({p}) (line {line})"
            for (module, name), (line, _, defaulted) in functions.items()
            for p in defaulted if p not in passed[module, name]]


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


def test_every_defaulted_parameter_of_a_private_function_is_passed():
    assert unpassed_parameters(_sources()) == []


def test_the_scan_finds_a_parameter_that_nothing_passes():
    sources = _sources()
    head = "def _check_measure(parent: tuple | None, measure: tuple, slope: Fraction"
    line = sources["reduction"][:sources["reduction"].index(head)].count("\n") + 1
    sources["reduction"] = sources["reduction"].replace(head, head + ", flag=False", 1)
    assert unpassed_parameters(sources) == [f"reduction._check_measure(flag) (line {line})"]
    source = ("from .m import _g as _h\n"
              "def _f(a, b=1, *, c=2):\n    return a\n"
              "class C:\n    def _m(self, x=0):\n        return x\n"
              "_f(1, c=3)\n_h(y=1)\nC()._m(4)\n")
    assert unpassed_parameters({"n": source, "m": "def _g(x=0, y=0):\n    return x\n"}) == [
        "n._f(b) (line 2)", "m._g(x) (line 1)"]
    assert unpassed_parameters({"n": source + "_f(1, 2)\n_h(*[0])\n",
                                "m": "def _g(x=0, y=0):\n    return x\n"}) == []
