"""Exact scalars: towers of algebraic extensions of the rationals.

The base level is ``fractions.Fraction``.  Each further level adjoins a root
of a monic polynomial whose coefficients live one level down.  Minimal
polynomials are taken on trust (dynamic evaluation): inverting a zero divisor
reports the discovered factorization through :class:`ZeroDivisorSplit`
instead of ever producing a silently wrong answer.

Internally an element is a *payload*: a ``Fraction`` at level 0 and, at level
k, a tuple of level-(k-1) payloads of length ``deg(m_k)`` (coordinates in the
power basis of the adjoined root).  :class:`FieldElement` is a thin wrapper
that pairs a payload with its tower and level and provides operators.

Products reduce through *positions*.  Coordinate ``(i_1, ..., i_k)``, the
product of the adjoined roots to those powers, sits at position
``sum(i_j * sizes[j - 1])``, where ``sizes[j]`` is the product of
``2 * deg(m_i) - 1`` over the first ``j`` levels.  A position names the same
coordinate at every level, and the product of two reduced coordinates sits at
the sum of their positions.  So a product (:func:`_mul`, and the series
product kernel) sums integer numerator products per position, unreduced, and
folds once: :func:`_fold` sends every position to its monomial reduced by the
minimal polynomials, through one integer map per level built from the level
below.  Its integer part, :func:`_fold_nums`, lets the series kernel stay on
integer coordinates from one product to the next.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainViolation, NotInvertible, ZeroDivisorSplit

Payload = object  # Fraction | tuple[Payload, ...]


# ---------------------------------------------------------------------------
# payload arithmetic


def _zero_payload(tower: "FieldTower", level: int) -> Payload:
    if level == 0:
        return Fraction(0)
    deg = tower.degree(level)
    below = _zero_payload(tower, level - 1)
    return tuple(below for _ in range(deg))


def _lift_payload(tower: "FieldTower", level_from: int, level_to: int, p: Payload) -> Payload:
    while level_from < level_to:
        level_from += 1
        deg = tower.degree(level_from)
        zero = _zero_payload(tower, level_from - 1)
        p = (p,) + tuple(zero for _ in range(deg - 1))
    return p


def _payload_is_zero(p: Payload) -> bool:
    if isinstance(p, Fraction):
        return p == 0
    return all(_payload_is_zero(c) for c in p)


def _add(tower: "FieldTower", level: int, a: Payload, b: Payload) -> Payload:
    if level == 0:
        return a + b
    return tuple(_add(tower, level - 1, x, y) for x, y in zip(a, b))


def _neg(tower: "FieldTower", level: int, a: Payload) -> Payload:
    if level == 0:
        return -a
    return tuple(_neg(tower, level - 1, x) for x in a)


def _sub(tower: "FieldTower", level: int, a: Payload, b: Payload) -> Payload:
    if level == 0:
        return a - b
    return tuple(_sub(tower, level - 1, x, y) for x, y in zip(a, b))


def _mul(tower: "FieldTower", level: int, a: Payload, b: Payload) -> Payload:
    if level == 0:
        return a * b
    da, ta = _over_lcm(_unfold(tower, level, a))
    db, tb = _over_lcm(_unfold(tower, level, b))
    nums: dict[int, int] = {}
    for pa, na in ta:
        for pb, nb in tb:
            nums[pa + pb] = nums.get(pa + pb, 0) + na * nb
    return _fold(tower, level, nums, da * db)


def _unfold(tower: "FieldTower", level: int, p: Payload, base: int = 0) -> list:
    """The nonzero coordinates of ``p`` as ``(base + position, q)``."""
    if level == 0:
        return [(base, p)] if p else []
    out = []
    for t, c in enumerate(p):
        out += _unfold(tower, level - 1, c, base + t * tower.sizes[level - 1])
    return out


def _over_lcm(coords: list) -> tuple[int, list]:
    """``(den, [(key, numerator)])``: the ``(key, Fraction)`` pairs ``coords``
    as integers over their least common denominator."""
    den = math.lcm(*[q.denominator for _, q in coords])
    return den, [(k, q.numerator * (den // q.denominator)) for k, q in coords]


def _nest(tower: "FieldTower", level: int, nums: dict, den: int, base: int = 0) -> Payload:
    """The payload whose coordinate at position ``p`` is ``nums.get(p, 0) / den``."""
    if level == 0:
        return Fraction(nums.get(base, 0), den)
    return tuple(_nest(tower, level - 1, nums, den, base + t * tower.sizes[level - 1])
                 for t in range(tower.degree(level)))


def _fold(tower: "FieldTower", level: int, nums: dict, den: int) -> Payload:
    """The payload at ``level`` with unreduced coordinates ``nums[position] / den``."""
    if level == 0:
        return Fraction(nums.get(0, 0), den)
    d, reduced = _fold_nums(tower, level, nums)
    return _nest(tower, level, reduced, den * d)


def _fold_nums(tower: "FieldTower", level: int, nums: dict) -> tuple[int, dict]:
    """``(d, reduced)``: the integer part of :func:`_fold`, the unreduced
    coordinates ``nums`` reduced by the minimal polynomials through ``level``
    as numerators over ``d`` by position (zero sums included)."""
    if level == 0:
        return 1, nums
    d, images = _fold_map(tower, level)
    reduced: dict[int, int] = {}
    for pos, n in nums.items():
        for p, r in images[pos]:
            reduced[p] = reduced.get(p, 0) + n * r
    return d, reduced


def _fold_map(tower: "FieldTower", level: int) -> tuple[int, list]:
    """``(d, images)``: ``images[i * tower.sizes[level - 1] + j]`` holds ``d``
    times the coordinates of ``x**i`` times the monomial at position ``j``,
    reduced, where ``x`` is the root adjoined at ``level``; built once per
    tower and level, in ``tower.folds``."""
    if level in tower.folds:
        return tower.folds[level]
    below, deg = level - 1, tower.degree(level)
    zero, one = _zero_payload(tower, below), _lift_payload(tower, 0, below, Fraction(1))
    powers = [[one if t == i else zero for t in range(deg)] for i in range(deg)]
    for _ in range(deg - 1):  # x times the last power; m is monic, so x**deg = -(m_0 + ...)
        top, shifted = powers[-1][-1], [zero] + powers[-1][:-1]
        powers.append([_sub(tower, below, c, _mul(tower, below, top, m))
                       for c, m in zip(shifted, tower.levels[below])])
    monomials = [_fold(tower, below, {j: 1}, 1) for j in range(tower.sizes[below])]
    images = [_over_lcm(_unfold(tower, level, tuple(_mul(tower, below, mono, c) for c in xi)))
              for xi in powers for mono in monomials]
    d = math.lcm(*[den for den, _ in images])
    tower.folds[level] = d, [[(p, n * (d // den)) for p, n in image] for den, image in images]
    return tower.folds[level]


def _inv(tower: "FieldTower", level: int, a: Payload) -> Payload:
    if _payload_is_zero(a):
        raise NotInvertible("division by zero")
    if level == 0:
        return Fraction(1) / a
    if level == 1:
        inverse = _inv_by_elimination(tower, a)
        if inverse is not None:
            return inverse
    return _inv_by_euclid(tower, level, a)


def _inv_by_elimination(tower: "FieldTower", a: Payload) -> Payload | None:
    """The inverse of ``a`` at level 1, or ``None`` when ``a`` is a zero
    divisor: the solution ``y`` of ``M y = e_0`` for the matrix ``M`` of
    multiplication by ``a`` modulo the minimal polynomial, by fraction-free
    (Bareiss) elimination of an integer ``N``, and integer back-substitution
    of ``det N * y``.  ``N`` is ``M`` cleared of denominators through the
    cached fold map, then each column and each row of ``[N | b]`` divided by
    its content (dividing column ``j`` by ``g`` solves for ``g y_j``).  The
    extended Euclid's cofactors grow far faster on large coefficients."""
    deg = tower.degree(1)
    den, coords = _over_lcm(_unfold(tower, 1, a))
    d, images = _fold_map(tower, 1)
    rows = [[0] * (deg + 1) for _ in range(deg)]
    for j in range(deg):  # column j: a * x**j, reduced, times den * d
        for t, n in coords:
            for i, v in images[t + j]:
                rows[i][j] += n * v
    rows[0][deg] = den * d
    scales = [math.gcd(*[row[j] for row in rows]) or 1 for j in range(deg)]
    rows = [[v // g for v, g in zip(row, scales)] + row[deg:] for row in rows]
    rows = [[v // g for v in row] for row in rows for g in [math.gcd(*row) or 1]]
    prev = 1
    for k in range(deg):
        pivot = next((i for i in range(k, deg) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, deg + 1):
                row[j] = (top[k] * row[j] - f * top[j]) // prev
            row[k] = 0
        prev = top[k]
    x = [0] * deg
    for i in reversed(range(deg)):
        row = rows[i]
        x[i] = (prev * row[deg] - sum(row[j] * x[j] for j in range(i + 1, deg))) // row[i]
    return tuple(Fraction(v, prev * g) for v, g in zip(x, scales))


def _inv_by_euclid(tower: "FieldTower", level: int, a: Payload) -> Payload:
    """The inverse of a nonzero ``a`` by the extended Euclidean algorithm
    over the level below; a zero divisor raises :class:`ZeroDivisorSplit`
    with the factorization of the minimal polynomial it shows."""
    below = level - 1
    deg = tower.degree(level)
    m = list(tower.levels[level - 1])
    # extended Euclid for gcd(a, m) over the level below
    r0, r1 = m, _poly_trim(list(a))
    t0: list[Payload] = []
    t1: list[Payload] = [_lift_payload(tower, 0, below, Fraction(1))]
    while r1:
        q, r = _poly_divmod(tower, below, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(tower, below, t0, _poly_mul(tower, below, q, t1))
    # r0 = gcd(a, m), t0 satisfies t0*a = r0 (mod m)
    if len(r0) == 1:
        lead_inv = _inv(tower, below, r0[0])
        inv_poly = [_mul(tower, below, c, lead_inv) for c in t0]
        inv_poly = _poly_mod(tower, below, inv_poly, m)
        zero = _zero_payload(tower, below)
        inv_poly = inv_poly + [zero] * (deg - len(inv_poly))
        return tuple(inv_poly[:deg])
    # nontrivial gcd: the minimal polynomial factors
    g = _poly_monic(tower, below, r0)
    h, rem = _poly_divmod(tower, below, m, g)
    if rem:  # pragma: no cover - the gcd divides m by construction
        raise NotInvertible("exact gcd failed to divide the minimal polynomial")
    raise ZeroDivisorSplit(
        "zero divisor at tower level %d: minimal polynomial factors as a "
        "product of degrees %d and %d" % (level, len(g) - 1, len(h) - 1),
        level,
        (tuple(g), tuple(h)),
        tower,
    )


def _div(tower: "FieldTower", level: int, a: Payload, b: Payload) -> Payload:
    return _mul(tower, level, a, _inv(tower, level, b))


# ---------------------------------------------------------------------------
# polynomials with payload coefficients (ascending degree, trimmed)


def _poly_trim(cs: list) -> list:
    while cs and _payload_is_zero(cs[-1]):
        cs.pop()
    return cs


def _poly_add(tower, level, a: list, b: list) -> list:
    n = max(len(a), len(b))
    zero = _zero_payload(tower, level)
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(_add(tower, level, x, y))
    return _poly_trim(out)


def _poly_sub(tower, level, a: list, b: list) -> list:
    return _poly_add(tower, level, a, [_neg(tower, level, c) for c in b])


def _poly_mul(tower, level, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero = _zero_payload(tower, level)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if _payload_is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = _add(tower, level, out[i + j], _mul(tower, level, x, y))
    return _poly_trim(out)


def _poly_divmod(tower, level, a: list, b: list) -> tuple[list, list]:
    b = _poly_trim(list(b))
    if not b:
        raise NotInvertible("polynomial division by zero")
    lead_inv = _inv(tower, level, b[-1])
    r = list(a)
    _poly_trim(r)
    q: list = []
    zero = _zero_payload(tower, level)
    while len(r) >= len(b):
        c = _mul(tower, level, r[-1], lead_inv)
        d = len(r) - len(b)
        if len(q) < d + 1:
            q.extend([zero] * (d + 1 - len(q)))
        q[d] = _add(tower, level, q[d], c)
        for i, bc in enumerate(b):
            r[d + i] = _sub(tower, level, r[d + i], _mul(tower, level, c, bc))
        _poly_trim(r)
    return _poly_trim(q), r


def _poly_mod(tower, level, a: list, m: list) -> list:
    return _poly_divmod(tower, level, a, m)[1]


def _poly_monic(tower, level, a: list) -> list:
    a = _poly_trim(list(a))
    if not a:
        return a
    inv = _inv(tower, level, a[-1])
    return _poly_trim([_mul(tower, level, c, inv) for c in a])


def _poly_gcd(tower, level, a: list, b: list) -> list:
    """Monic gcd by the Euclidean algorithm."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    while r1:
        r0, r1 = r1, _poly_mod(tower, level, r0, r1)
    return _poly_monic(tower, level, r0)


def _poly_squarefree(tower, level, a: list) -> list:
    """``a / gcd(a, a')``, monic -- the radical of ``a`` in characteristic zero."""
    a = _poly_monic(tower, level, a)
    da = [_mul(tower, level, a[k], _lift_payload(tower, 0, level, Fraction(k)))
          for k in range(1, len(a))]
    q, r = _poly_divmod(tower, level, a, _poly_gcd(tower, level, a, da))
    if r:  # pragma: no cover - gcd divides
        raise NotInvertible("squarefree division failed")
    return _poly_monic(tower, level, q)


# ---------------------------------------------------------------------------
# public wrapper types


class FieldTower:
    """An extension tower over the rationals.

    ``levels`` is a tuple of monic minimal polynomials; polynomial ``k``
    (0-based) defines level ``k+1`` and its coefficients are payloads at
    level ``k``, stored ascending and including the leading 1.  ``sizes``
    and ``folds`` hold the position layout and the integer fold maps of every
    product, scalar (:func:`_mul`) or series.
    """

    __slots__ = ("levels", "sizes", "folds")

    def __init__(self, levels: tuple = ()):
        self.levels = tuple(tuple(m) for m in levels)
        self.sizes = [math.prod(2 * len(m) - 3 for m in self.levels[:k])
                      for k in range(len(self.levels) + 1)]
        self.folds: dict = {}  # level -> ``_fold_map(self, level)``

    @property
    def depth(self) -> int:
        return len(self.levels)

    def degree(self, level: int) -> int:
        """Degree of the extension adjoined at ``level`` (1-based)."""
        return len(self.levels[level - 1]) - 1

    # -- construction ------------------------------------------------------

    def extend(self, minpoly: Sequence) -> "FieldTower":
        """Adjoin a root of ``minpoly`` (coefficients at the current top level).

        ``minpoly`` must be monic of degree >= 2.  Irreducibility is *not*
        checked; see module docstring.
        """
        coeffs = [self.coerce(c) for c in minpoly]
        if len(coeffs) < 3:
            raise DomainViolation("extensions must have degree >= 2")
        payloads = [c._lifted(self, self.depth).payload for c in coeffs]
        if not _payload_is_zero(_sub(self, self.depth, payloads[-1],
                                     _lift_payload(self, 0, self.depth, Fraction(1)))):
            raise DomainViolation("minimal polynomial must be monic")
        return FieldTower(self.levels + (tuple(payloads),))

    # -- elements ----------------------------------------------------------

    def rational(self, q) -> "FieldElement":
        return FieldElement(self, 0, Fraction(q))

    def zero(self, level: int | None = None) -> "FieldElement":
        lv = self.depth if level is None else level
        return FieldElement(self, lv, _zero_payload(self, lv))

    def one(self, level: int | None = None) -> "FieldElement":
        lv = self.depth if level is None else level
        return FieldElement(self, lv, _lift_payload(self, 0, lv, Fraction(1)))

    def gen(self, level: int | None = None) -> "FieldElement":
        """The root adjoined at ``level`` (default: the top level)."""
        lv = self.depth if level is None else level
        if lv < 1:
            raise DomainViolation("the rational level has no generator")
        return FieldElement(self, lv, _nest(self, lv, {self.sizes[lv - 1]: 1}, 1))

    def coerce(self, x) -> "FieldElement":
        """View ``x`` as an element of this tower (or of ``x``'s own tower,
        whichever is deeper -- prefix-compatible towers share payloads)."""
        if isinstance(x, FieldElement):
            target = common_tower(x.tower, self)
            return FieldElement(target, x.level, x.payload)
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise DomainViolation(f"cannot coerce {type(x).__name__} into the tower")

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldTower) and self.levels == other.levels

    def __hash__(self) -> int:
        return hash(self.levels)

    def __repr__(self) -> str:
        if not self.levels:
            return "FieldTower(QQ)"
        degs = ",".join(str(self.degree(k)) for k in range(1, self.depth + 1))
        return f"FieldTower(QQ; degrees {degs})"


def _deeper(a: FieldTower, b: FieldTower) -> FieldTower | None:
    """The deeper of two towers (``a`` on a tie), or ``None`` when they are
    not prefix-compatible."""
    if a is b:
        return a
    deep, shallow = (a, b) if a.depth >= b.depth else (b, a)
    return deep if deep.levels[: shallow.depth] == shallow.levels else None


def common_tower(a: FieldTower, b: FieldTower) -> FieldTower:
    """The deeper of two prefix-compatible towers."""
    tower = _deeper(a, b)
    if tower is None:
        raise DomainViolation("towers are not prefix-compatible")
    return tower


def common_context(rows) -> tuple[FieldTower, int]:
    """Deepest tower and highest level among the elements of ``rows``.

    ``rows`` is a matrix or a list of polynomials.  The result is the one
    ``(tower, level)`` at which the payload kernels can combine every element.
    """
    tower = None
    level = 0
    for row in rows:
        for x in row:
            if x.tower is not tower:
                tower = x.tower if tower is None else common_tower(tower, x.tower)
            level = max(level, x.level)
    if tower is None:
        raise DomainViolation("cannot infer the coefficient field of no elements")
    return tower, level


def _operator(kernel):
    """A binary :class:`FieldElement` operator: ``kernel`` on the paired payloads."""

    def op(self: "FieldElement", other):
        pair = FieldElement._pair(self, other)
        if pair is None:
            return NotImplemented
        tower, level, pa, pb = pair
        return FieldElement(tower, level, kernel(tower, level, pa, pb))

    return op


class FieldElement:
    """An exact scalar in a :class:`FieldTower`."""

    __slots__ = ("tower", "level", "payload")

    def __init__(self, tower: FieldTower, level: int, payload: Payload):
        self.tower = tower
        self.level = level
        self.payload = payload

    # -- helpers -----------------------------------------------------------

    def _lifted(self, tower: FieldTower, level: int) -> "FieldElement":
        p = _lift_payload(tower, self.level, level, self.payload)
        return FieldElement(tower, level, p)

    @staticmethod
    def _pair(a: "FieldElement", b):
        """``(tower, level, pa, pb)``: both payloads at the operands' common
        tower and level, lifted only where a level differs; ``None`` when
        ``b`` is not a scalar."""
        if isinstance(b, FieldElement):
            tower = a.tower if b.tower is a.tower else common_tower(a.tower, b.tower)
            lb, pb = b.level, b.payload
        elif isinstance(b, (int, Fraction)):
            tower, lb, pb = a.tower, 0, Fraction(b)
        else:
            return None
        level = max(a.level, lb)
        return (tower, level, _lift_payload(tower, a.level, level, a.payload),
                _lift_payload(tower, lb, level, pb))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return _payload_is_zero(self.payload)

    def to_fraction(self) -> Fraction:
        coords = dict(_unfold(self.tower, self.level, self.payload))
        if coords.keys() - {0}:
            raise DomainViolation("element is not rational")
        return coords.get(0, Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(_sub)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__ = _operator(_div)

    def __neg__(self):
        return FieldElement(self.tower, self.level, _neg(self.tower, self.level, self.payload))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.level, _inv(self.tower, self.level, self.payload))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement) and _deeper(self.tower, other.tower) is None:
            return False
        pair = FieldElement._pair(self, other)
        if pair is None:
            return NotImplemented
        return pair[2] == pair[3]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.level == 0:
            return f"{self.payload}"
        return f"FieldElement(level={self.level}, {self.payload})"


# ---------------------------------------------------------------------------
# polynomial views over FieldElement: lift to the common context, run the
# payload kernels above, wrap the result


def _poly_payloads(polys) -> tuple[FieldTower, int, list]:
    tower, level = common_context(polys)
    return tower, level, [[_lift_payload(tower, c.level, level, c.payload) for c in p]
                          for p in polys]


def _wrap(tower: FieldTower, level: int, cs: list) -> list[FieldElement]:
    return [FieldElement(tower, level, c) for c in cs]


def poly_trim(cs: list[FieldElement]) -> list[FieldElement]:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def poly_divmod(a: list[FieldElement], b: list[FieldElement]) -> tuple[list[FieldElement], list[FieldElement]]:
    tower, level, (pa, pb) = _poly_payloads([a, b])
    q, r = _poly_divmod(tower, level, pa, pb)
    return _wrap(tower, level, q), _wrap(tower, level, r)


def poly_squarefree_part(a: list[FieldElement]) -> list[FieldElement]:
    """``a / gcd(a, a')`` — the radical of ``a`` in characteristic zero."""
    tower, level, (pa,) = _poly_payloads([a])
    return _wrap(tower, level, _poly_squarefree(tower, level, pa))
