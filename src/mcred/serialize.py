"""Canonical JSON encoding for connections, gauges, trees and dimension data.

The on-disk format is plain JSON.  Scalars are exact rationals written as
strings (``"3"``, ``"-5/7"``); an element of an extension field is written as
its coordinate vector over the level below, nested down to rational strings,
except that rational values may always be abbreviated to a bare string.  The
field itself travels with every object as a list of monic minimal polynomials
(ascending coefficients, one list per tower level), so a decoded object is
self-contained.

A connection file looks like::

    {
      "rank": 2,
      "ramification": 1,
      "pole_order": 2,
      "precision": 7,
      "field": {"extensions": []},
      "coefficients": [
        {"exp": -2, "matrix": [["0", "1"], ["0", "0"]]},
        {"exp": 0,  "matrix": [["0", "0"], ["2", "0"]]}
      ]
    }

``exp`` counts powers of the working variable ``u`` with ``u**ramification
= t``; ``precision`` is the exponent below which coefficients are known
(``null`` for exact data) and ``pole_order`` is ``-valuation`` (``null``
for the zero connection).  Gauge files reuse the same layout without the
``pole_order`` key.  Encoders emit keys in a fixed order and :func:`dumps`
sorts them, so equal objects serialize to identical bytes.

Decoding never trusts redundant fields: a stated ``pole_order`` or matrix
shape that disagrees with the coefficients raises :class:`ParseError`, as
does any malformed scalar, duplicate exponent or ragged grid.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .connection import Connection
from .cohomology import DeRhamDims
from .errors import DomainViolation, ParseError
from .field import FieldElement, FieldTower
from .matrices import LaurentMatrix
from .reduction import ReductionNode, ReductionTree
from .series import INF, LaurentSeries, _form_of, _from_form

MAX_RANK = 64
"""Largest matrix rank :func:`decode_matrix` accepts.  A matrix of rank n
holds n² series, so without a bound a file of a hundred bytes could demand
unbounded memory; the engine's own generators never exceed rank 3."""

MAX_EXPONENT = 256
"""Largest ``|exp|`` or ``|precision|`` accepted in input files and for the
CLI's ``--precision`` and ``--window``.  The reduction takes one Sibuya step
per exponent below its working precision, so without a bound a 200-byte file
could demand a million steps; ``mcred generate`` stays within 3."""

MAX_FIELD_POSITIONS = 45
"""Largest ``tower.sizes[-1]`` :func:`decode_tower` accepts: the unreduced
coordinate positions of the top level, which size every product's fold map.
A level of degree d multiplies them by 2d - 1, so without a bound a 210-byte
file stacking eight quadratics (6,561 positions) keeps ``mcred gauge`` busy
for 15 s and 50 MB.  At 45 (say a cubic over two quadratics, or one extension of
degree 23) the slowest field tried, a dense degree-23 minimal polynomial,
gauges a rank-1 connection in 0.3 s on a 2-core x86-64 VM, start-up
included; the tests, samples and benchmark stay within 15."""

# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def fraction_to_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # no decimals, exponents or spaces


def str_to_fraction(s) -> Fraction:
    """The ``Fraction`` a scalar string names; :class:`ParseError` for any
    other text, a zero denominator, or a numerator or denominator longer than
    Python's integer digit limit (4,300 digits by default)."""
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ParseError(f"malformed rational {s!r}")
    p, q = match.groups()
    try:
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {s!r}") from exc


def _nested(tower: FieldTower, level: int, form: tuple):
    """The JSON value of the element with ``form`` at ``level``: a rational
    string when it is rational, else its coordinate vector over the level
    below, nested down to rational strings (:func:`_vector`)."""
    den, terms = form
    if not terms or not terms[-1][0]:  # one numerator at position 0, in lowest terms
        n = terms[0][1] if terms else 0
        return str(n) if den == 1 else f"{n}/{den}"
    return _vector(tower, level, den, dict(terms), 0)


def _vector(tower: FieldTower, level: int, den: int, coords: dict, base: int):
    """The coordinate vector at ``level`` of ``coords[base + position] / den``."""
    if level == 0:
        return fraction_to_str(Fraction(coords.get(base, 0), den))
    step = tower.sizes[level - 1]
    return [_vector(tower, level - 1, den, coords, base + t * step)
            for t in range(tower.degree(level))]


def _flat(tower: FieldTower, level: int, enc, base: int, out: list) -> None:
    """Append ``(base + position, Fraction)`` for each nonzero coordinate of
    the JSON value ``enc`` at ``level``; a short coordinate vector is padded
    with zeros."""
    if isinstance(enc, str):
        q = str_to_fraction(enc)
        if q:
            out.append((base, q))
        return
    if not isinstance(enc, list):
        raise ParseError(
            f"scalar values must be rational strings or coordinate lists, "
            f"got {type(enc).__name__}"
        )
    if level == 0:
        raise ParseError("coordinate vector given where a rational was expected")
    deg = tower.degree(level)
    if not 1 <= len(enc) <= deg:
        raise ParseError(
            f"coordinate vector of length {len(enc)} for an extension of "
            f"degree {deg}"
        )
    step = tower.sizes[level - 1]
    for t, c in enumerate(enc):
        _flat(tower, level - 1, c, base + t * step, out)


def encode_element(x: FieldElement):
    return _nested(x.tower, x.tower.depth, x.form)


def decode_element(tower: FieldTower, enc) -> FieldElement:
    if isinstance(enc, str):  # a rational, the common case
        q = str_to_fraction(enc)
        return FieldElement(tower, (q.denominator, ((0, q.numerator),)) if q else (1, ()))
    coords: list = []
    _flat(tower, tower.depth, enc, 0, coords)
    den = math.lcm(*[q.denominator for _, q in coords])
    return FieldElement(tower, (den, tuple((p, q.numerator * (den // q.denominator))
                                           for p, q in coords)))


# ---------------------------------------------------------------------------
# field towers
# ---------------------------------------------------------------------------


def encode_tower(tower: FieldTower) -> dict:
    exts = []
    for k in range(1, tower.depth + 1):
        exts.append([_nested(tower, k - 1, c) for c in tower.levels[k - 1]])
    return {"extensions": exts}


def decode_tower(obj) -> FieldTower:
    tower = FieldTower()
    if obj is None:
        return tower
    if not isinstance(obj, dict):
        raise ParseError("field descriptor must be an object")
    exts = obj.get("extensions", [])
    if not isinstance(exts, list):
        raise ParseError("field extensions must form a list")
    for minpoly in exts:
        if not isinstance(minpoly, list):
            raise ParseError("each extension must list its minimal polynomial")
        try:
            tower = tower.extend([decode_element(tower, c) for c in minpoly])
        except DomainViolation as exc:
            raise ParseError(f"bad minimal polynomial: {exc}") from exc
        if tower.sizes[-1] > MAX_FIELD_POSITIONS:
            raise ParseError(f"field has {tower.sizes[-1]} coordinate positions, "
                             f"more than {MAX_FIELD_POSITIONS}")
    return tower


# ---------------------------------------------------------------------------
# low-level helpers
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise ParseError(f"{what} is missing the {key!r} key")
    return obj[key]


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _prec_to_json(prec):
    return None if prec is INF else int(prec)


def check_exponent(value, what: str) -> int:
    """``value`` if it is an int of absolute value at most
    :data:`MAX_EXPONENT`, else :class:`ParseError`."""
    value = _as_int(value, what)
    if abs(value) > MAX_EXPONENT:
        raise ParseError(f"{what} {value} lies outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]")
    return value


def _prec_from_json(value):
    if value is None:
        return INF
    return check_exponent(value, "precision")


def _decode_grid(tower: FieldTower, grid, n: int, exp: int, entries: list) -> None:
    """Decode the ``n×n`` scalar grid at ``exp``, each nonzero scalar straight
    into the ``{exp: FieldElement}`` dict ``entries[i][j]``."""
    if not isinstance(grid, list) or len(grid) != n:
        raise ParseError(f"coefficient matrix must have {n} rows")
    for row, coeffs in zip(grid, entries):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"coefficient matrix must have {n} columns per row")
        for x, elements in zip(row, coeffs):
            x = decode_element(tower, x)
            if x.form[1]:
                elements[exp] = x


# ---------------------------------------------------------------------------
# series and matrices
# ---------------------------------------------------------------------------


def encode_series(s: LaurentSeries) -> dict:
    return {
        "ramification": s.ram,
        "precision": _prec_to_json(s.prec),
        "field": encode_tower(s.tower),
        "coefficients": [
            {"exp": e, "value": encode_element(c)} for e, c in s.items()
        ],
    }


def _header(obj: dict, what: str, key: str) -> tuple:
    """``(tower, ram, prec, terms)`` of a ``what`` object (``"series"`` or
    ``"matrix"``): its field, ramification and precision, and a generator of
    ``(exp, item[key])`` over its coefficient objects.  Each exponent is
    checked (in range, new, below the precision) as its term is drawn, so a
    caller that decodes each term before drawing the next meets the faults
    in file order."""
    tower = decode_tower(obj.get("field"))
    ram = _as_int(obj.get("ramification", 1), "ramification")
    if ram < 1:
        raise ParseError("ramification must be positive")
    prec = _prec_from_json(obj.get("precision"))
    items = _require(obj, "coefficients", f"a {what}")
    if not isinstance(items, list):
        raise ParseError("coefficients must form a list")

    def terms():
        exps = set()
        for item in items:
            if not isinstance(item, dict):
                raise ParseError(f"{what} coefficients must be {{exp, {key}}} objects")
            exp = check_exponent(_require(item, "exp", f"a {what} coefficient"), "exp")
            if exp in exps:
                raise ParseError(f"duplicate exponent {exp}")
            exps.add(exp)
            if prec is not INF and exp >= prec:
                raise ParseError(
                    f"coefficient at exponent {exp} lies beyond the stated "
                    f"precision {prec}"
                )
            yield exp, _require(item, key, f"a {what} coefficient")

    return tower, ram, prec, terms()


def decode_series(obj) -> LaurentSeries:
    if not isinstance(obj, dict):
        raise ParseError("a series must be a JSON object")
    tower, ram, prec, terms = _header(obj, "series", "value")
    coeffs = {exp: decode_element(tower, value) for exp, value in terms}
    return LaurentSeries(tower, coeffs, prec, ram)


def encode_matrix(m: LaurentMatrix) -> dict:
    if m.prec is not INF:
        m = m.truncate(m.prec)
    views = [[s.coeffs for s in row] for row in m.entries]
    zero = encode_element(m.tower.zero())
    return {
        "rank": m.nrows,
        "ramification": m.ram,
        "precision": _prec_to_json(m.prec),
        "field": encode_tower(m.tower),
        "coefficients": [
            {"exp": e, "matrix": [[encode_element(v[e]) if e in v else zero for v in row]
                                  for row in views]}
            for e in sorted({e for row in views for v in row for e in v})
        ],
    }


def decode_matrix(obj) -> LaurentMatrix:
    if not isinstance(obj, dict):
        raise ParseError("a matrix must be a JSON object")
    n = _as_int(_require(obj, "rank", "a matrix"), "rank")
    if not 1 <= n <= MAX_RANK:
        raise ParseError(f"rank must lie between 1 and {MAX_RANK}, got {n}")
    tower, ram, prec, terms = _header(obj, "matrix", "matrix")
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for exp, grid in terms:
        _decode_grid(tower, grid, n, exp, entries)
    size = tower.sizes[-1]
    return LaurentMatrix(tower, [[_from_form(tower, ram, _form_of(size, prec, elements))
                                  for elements in row] for row in entries], ram)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def encode_connection(c: Connection) -> dict:
    """:func:`encode_matrix` of ``c.matrix`` plus its ``pole_order``, which
    truncating to the common precision does not change."""
    pole = c.pole_order
    return {**encode_matrix(c.matrix), "pole_order": None if pole == -INF else int(pole)}


def decode_connection(obj) -> Connection:
    c = Connection(decode_matrix(obj))
    if isinstance(obj, dict) and "pole_order" in obj:
        stated = obj["pole_order"]
        actual = c.pole_order
        actual = None if actual == -INF else int(actual)
        if stated is not None:
            stated = _as_int(stated, "pole_order")
        if stated != actual:
            raise ParseError(
                f"stated pole_order {stated} disagrees with the coefficients "
                f"(which give {actual})"
            )
    return c


# ---------------------------------------------------------------------------
# reduction trees (one-way: the tree is an output artifact)
# ---------------------------------------------------------------------------


def _encode_op(op) -> dict:
    tag, value = op
    if tag == "gauge":
        return {"op": "gauge", "matrix": encode_matrix(value)}
    if tag == "twist":
        return {"op": "twist", "series": encode_series(value)}
    if tag == "ramify":
        return {"op": "ramify", "degree": value}
    raise DomainViolation(f"unknown reduction operation {tag!r}")


def encode_node(node: ReductionNode) -> dict:
    out = {
        "kind": node.kind,
        "size": node.size,
        "ramification": node.ram,
        "pole": node.pole,
        "ops": [_encode_op(op) for op in node.ops],
    }
    if node.measure is not None:
        out["measure"] = list(node.measure)
    if node.sizes is not None:
        out["sizes"] = list(node.sizes)
    if node.alpha is not None:
        out["alpha"] = fraction_to_str(node.alpha)
    if node.shear_base is not None:
        out["shear_base"] = node.shear_base
    if node.lead_partition is not None:
        out["lead_partition"] = list(node.lead_partition)
    if node.children:
        out["children"] = [encode_node(child) for child in node.children]
    if node.leaf is not None:
        out["leaf"] = encode_connection(node.leaf)
    if node.residue is not None:
        out["residue"] = [[encode_element(x) for x in row]
                          for row in node.residue]
    return out


def encode_tree(tree: ReductionTree) -> dict:
    return {
        "input": encode_connection(tree.source),
        "working": encode_connection(tree.working),
        "restarts": tree.restarts,
        "root": encode_node(tree.root),
    }


# ---------------------------------------------------------------------------
# cohomology results
# ---------------------------------------------------------------------------


def encode_dims(d: DeRhamDims) -> dict:
    return {
        "h0": d.h0,
        "h1": d.h1,
        "chi": d.chi,
        "window": [d.window.n_min, d.window.n_max],
        "stabilized": d.stabilized,
        "certificate": d.certificate,
    }


# ---------------------------------------------------------------------------
# text-level convenience
# ---------------------------------------------------------------------------


_KEYWORDS = {None: "null", True: "true", False: "false"}


def _dump(obj, indent: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _KEYWORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}"
                 for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_dump(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot write a {type(obj).__name__} canonically")
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True) +
    "\\n"`` for the dicts, lists, strings, ints, bools and ``None`` the
    encoders emit; any other value (a float too) is a ``TypeError``.  With an
    indent CPython's ``json`` runs its pure-Python encoder, so this small
    writer over the C string escaper ``encode_basestring_ascii`` takes its
    place.
    """
    return _dump(obj, "") + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj
