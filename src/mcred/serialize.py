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
import re
from fractions import Fraction

from .connection import Connection
from .cohomology import DeRhamDims
from .errors import DomainViolation, ParseError
from .field import FieldElement, FieldTower
from .matrices import LaurentMatrix
from .reduction import ReductionNode, ReductionTree
from .series import INF, LaurentSeries

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
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def str_to_fraction(s) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}")
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):  # no decimals, exponents or spaces
        raise ParseError(f"malformed rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {s!r}") from exc


def _encode_payload(payload):
    if isinstance(payload, Fraction):
        return fraction_to_str(payload)
    return [_encode_payload(c) for c in payload]


def _encode_at_level(tower: FieldTower, level: int, payload):
    x = FieldElement(tower, level, payload)
    if x.is_rational():
        return fraction_to_str(x.to_fraction())
    return _encode_payload(payload)


def encode_element(x: FieldElement):
    lifted = x._lifted(x.tower, x.tower.depth)
    return _encode_at_level(x.tower, x.tower.depth, lifted.payload)


def _decode_payload(tower: FieldTower, level: int, enc):
    if isinstance(enc, str):
        return tower.rational(str_to_fraction(enc))._lifted(tower, level).payload
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
    coords = [_decode_payload(tower, level - 1, c) for c in enc]
    zero = tower.zero(level - 1).payload
    coords.extend([zero] * (deg - len(coords)))
    return tuple(coords)


def decode_element(tower: FieldTower, enc) -> FieldElement:
    return FieldElement(tower, tower.depth, _decode_payload(tower, tower.depth, enc))


# ---------------------------------------------------------------------------
# field towers
# ---------------------------------------------------------------------------


def encode_tower(tower: FieldTower) -> dict:
    exts = []
    for k in range(1, tower.depth + 1):
        exts.append(
            [_encode_at_level(tower, k - 1, c) for c in tower.levels[k - 1]]
        )
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
        coeffs = [
            FieldElement(tower, tower.depth, _decode_payload(tower, tower.depth, c))
            for c in minpoly
        ]
        try:
            tower = tower.extend(coeffs)
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


def _decode_grid(tower: FieldTower, grid, n: int) -> list:
    if not isinstance(grid, list) or len(grid) != n:
        raise ParseError(f"coefficient matrix must have {n} rows")
    rows = []
    for row in grid:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"coefficient matrix must have {n} columns per row")
        rows.append([decode_element(tower, x) for x in row])
    return rows


# ---------------------------------------------------------------------------
# series and matrices
# ---------------------------------------------------------------------------


def encode_series(s: LaurentSeries) -> dict:
    if s.prec is not INF:
        s = s.truncate(s.prec)
    return {
        "ramification": s.ram,
        "precision": _prec_to_json(s.prec),
        "field": encode_tower(s.tower),
        "coefficients": [
            {"exp": e, "value": encode_element(c)} for e, c in s.items()
        ],
    }


def decode_series(obj) -> LaurentSeries:
    if not isinstance(obj, dict):
        raise ParseError("a series must be a JSON object")
    tower = decode_tower(obj.get("field"))
    ram = _as_int(obj.get("ramification", 1), "ramification")
    if ram < 1:
        raise ParseError("ramification must be positive")
    prec = _prec_from_json(obj.get("precision"))
    coeffs = {}
    for item in _require(obj, "coefficients", "a series"):
        if not isinstance(item, dict):
            raise ParseError("series coefficients must be {exp, value} objects")
        exp = check_exponent(_require(item, "exp", "a series coefficient"), "exp")
        if exp in coeffs:
            raise ParseError(f"duplicate exponent {exp}")
        coeffs[exp] = decode_element(tower, _require(item, "value",
                                                     "a series coefficient"))
    return LaurentSeries(tower, coeffs, prec, ram)


def encode_matrix(m: LaurentMatrix) -> dict:
    if m.prec is not INF:
        m = m.truncate(m.prec)
    return {
        "rank": m.nrows,
        "ramification": m.ram,
        "precision": _prec_to_json(m.prec),
        "field": encode_tower(m.tower),
        "coefficients": [
            {"exp": e, "matrix": [[encode_element(x) for x in row]
                                  for row in m.coeff_matrix(e)]}
            for e in m.support()
        ],
    }


def decode_matrix(obj) -> LaurentMatrix:
    if not isinstance(obj, dict):
        raise ParseError("a matrix must be a JSON object")
    n = _as_int(_require(obj, "rank", "a matrix"), "rank")
    if not 1 <= n <= MAX_RANK:
        raise ParseError(f"rank must lie between 1 and {MAX_RANK}, got {n}")
    tower = decode_tower(obj.get("field"))
    ram = _as_int(obj.get("ramification", 1), "ramification")
    if ram < 1:
        raise ParseError("ramification must be positive")
    prec = _prec_from_json(obj.get("precision"))
    items = _require(obj, "coefficients", "a matrix")
    if not isinstance(items, list):
        raise ParseError("coefficients must form a list")
    coeff_map: dict[int, list] = {}
    for item in items:
        if not isinstance(item, dict):
            raise ParseError("matrix coefficients must be {exp, matrix} objects")
        exp = check_exponent(_require(item, "exp", "a matrix coefficient"), "exp")
        if exp in coeff_map:
            raise ParseError(f"duplicate exponent {exp}")
        if prec is not INF and exp >= prec:
            raise ParseError(
                f"coefficient at exponent {exp} lies beyond the stated "
                f"precision {prec}"
            )
        grid = _require(item, "matrix", "a matrix coefficient")
        coeff_map[exp] = _decode_grid(tower, grid, n)
    return LaurentMatrix.from_coeff_map(tower, coeff_map, n, prec, ram)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def encode_connection(c: Connection) -> dict:
    m = c.matrix
    if m.prec is not INF:
        m = m.truncate(m.prec)
    pole = Connection(m).pole_order
    return {**encode_matrix(m), "pole_order": None if pole == -INF else int(pole)}


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
    tag, payload = op
    if tag == "gauge":
        return {"op": "gauge", "matrix": encode_matrix(payload)}
    if tag == "twist":
        return {"op": "twist", "series": encode_series(payload)}
    if tag == "ramify":
        return {"op": "ramify", "degree": payload}
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


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj
