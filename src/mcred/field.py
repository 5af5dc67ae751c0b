"""Exact scalars: towers of algebraic extensions of the rationals.

Each level of a tower adjoins a root of a monic polynomial whose coefficients
live one level down.  Minimal polynomials are taken on trust (dynamic
evaluation): inverting a zero divisor reports the discovered factorization
through :class:`ZeroDivisorSplit` instead of ever producing a silently wrong
answer.

An element is its *form* ``(den, terms)``: ``terms`` is a tuple of
``(position, numerator)`` pairs, ascending and nonzero, over one denominator
``den > 0``, with ``gcd(den, *numerators) == 1``, so that equal elements have
equal forms (zero is ``(1, ())``).  Coordinate ``(i_1, ..., i_k)``, the
product of the adjoined roots to those powers, sits at position
``sum(i_j * sizes[j - 1])``, where ``sizes[j]`` is the product of
``2 * deg(m_i) - 1`` over the first ``j`` levels.  A position names the same
coordinate at every level and in every tower that shares the levels below
it, so nothing is ever lifted: an element's level is the lowest one whose
size exceeds every position it holds.

A sum merges two forms over the lcm of their denominators.  The product of
two reduced coordinates sits at the sum of their positions, so a product
(:func:`_mul`, and the series product kernel) sums integer numerator
products per position, unreduced, and folds once: :func:`_folded` sends
every key, in one pass, to its monomial reduced by the minimal polynomials,
through one integer map per level (:func:`_fold_map`), built from the map
of the level below and shared by every tower that extends that level; a
series key folds by its position, the key modulo the top level's size.
An inverse is a fraction-free elimination at level 1, or the extended
Euclid over the level below.  A polynomial is the list of its coefficients' forms,
ascending, as ``FieldTower.levels`` stores them; the ``_poly_*`` functions
take its tower explicitly and return it trimmed.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainViolation, NotInvertible, ZeroDivisorSplit

_ZERO = (1, ())
_UNIT = (1, ((0, 1),))


# ---------------------------------------------------------------------------
# forms


def _rational(q) -> tuple:
    """The form of the rational ``q``, an int or a ``Fraction``."""
    if type(q) is not int:
        q = Fraction(q)
        return (q.denominator, ((0, q.numerator),)) if q else _ZERO
    return (1, ((0, q),)) if q else _ZERO


def _level(tower: "FieldTower", terms) -> int:
    """The lowest level of ``tower`` that holds every position of ``terms``."""
    return bisect.bisect_right(tower.sizes, terms[-1][0]) if terms else 0


def _reduced(den: int, terms) -> tuple:
    """The form of the nonzero ``(position, numerator)`` pairs ``terms``,
    ascending, over ``den > 0``: both divided by their gcd."""
    g = math.gcd(den, *[n for _, n in terms])
    if g == 1:
        return den, tuple(terms)
    return den // g, tuple((p, n // g) for p, n in terms)


def _combine(a: tuple, b: tuple, k: int = 1) -> tuple:
    """The form of ``a + k * b`` for forms ``a`` and ``b`` and an int ``k``."""
    (da, ta), (db, tb) = a, b
    if not tb:
        return a
    if not ta and k == 1:
        return b
    den = da if da == db else math.lcm(da, db)
    sa, sb = den // da, k * (den // db)
    if len(ta) == 1 == len(tb) and ta[0][0] == tb[0][0]:  # one coordinate each, say rationals
        n = ta[0][1] * sa + tb[0][1] * sb
        if not n:
            return _ZERO
        g = math.gcd(n, den)
        return den // g, ((ta[0][0], n // g),)
    acc = {p: n * sa for p, n in ta}
    for p, n in tb:
        acc[p] = acc.get(p, 0) + n * sb
    return _reduced(den, [(p, acc[p]) for p in sorted(acc) if acc[p]])


def _mul(tower: "FieldTower", a: tuple, b: tuple) -> tuple:
    """The form of ``a * b`` over ``tower``: the numerator products summed
    per position, folded once at the higher of the two levels."""
    (da, ta), (db, tb) = a, b
    if not ta or not tb:
        return _ZERO
    if len(ta) == 1 and not ta[0][0]:  # a rational times anything
        na = ta[0][1]
        return _reduced(da * db, [(p, na * n) for p, n in tb])
    if len(tb) == 1 and not tb[0][0]:
        nb = tb[0][1]
        return _reduced(da * db, [(p, n * nb) for p, n in ta])
    nums: dict[int, int] = {}
    for pa, na in ta:
        for pb, nb in tb:
            nums[pa + pb] = nums.get(pa + pb, 0) + na * nb
    # two reduced positions below sizes[k] sum to one below sizes[k]
    level = bisect.bisect_right(tower.sizes, ta[-1][0] + tb[-1][0])
    return _reduced(*_folded(tower, level, da * db, nums))


def _folded(tower: "FieldTower", level: int, den: int, nums: dict) -> tuple[int, list]:
    """``(den', terms)``: the unreduced numerators ``nums`` over ``den``, keyed
    by ``j * tower.sizes[level] + position``, reduced by the minimal
    polynomials through ``level`` in one pass (:func:`_fold_map`) as the
    nonzero ``(key, numerator)`` pairs by key over ``den'``, not divided by
    their gcd.  An element's positions all lie in block ``j = 0``."""
    if level:
        size, folded = tower.sizes[level], {}
        d, images = _fold_map(tower, level)
        for k, n in nums.items():
            if n:
                pos = k % size
                base = k - pos
                for p, r in images[pos]:
                    folded[base + p] = folded.get(base + p, 0) + n * r
        den, nums = den * d, folded
    return den, sorted((k, n) for k, n in nums.items() if n)


def _fold_map(tower: "FieldTower", level: int) -> tuple[int, list]:
    """``(d, images)``: ``images[i * tower.sizes[level - 1] + j]`` holds ``d``
    times the coordinates of ``x**i`` times the monomial at position ``j``,
    reduced, where ``x`` is the root adjoined at ``level``; built once per
    level, in ``tower.folds``, which every extension of ``tower`` shares."""
    cell = tower.folds[level - 1]
    if not cell:
        cell.append(_build_fold_map(tower, level))
    return cell[0]


def _build_fold_map(tower: "FieldTower", level: int) -> tuple[int, list]:
    """The :func:`_fold_map` of ``level``, from products at the level below."""
    below, deg, step = level - 1, tower.degree(level), tower.sizes[level - 1]
    powers = [[_UNIT if t == i else _ZERO for t in range(deg)] for i in range(deg)]
    for _ in range(deg - 1):  # x times the last power; m is monic, so x**deg = -(m_0 + ...)
        top, shifted = powers[-1][-1], [_ZERO] + powers[-1][:-1]
        powers.append([_combine(c, _mul(tower, top, m), -1)
                       for c, m in zip(shifted, tower.levels[below])])
    monomials = [_reduced(*_folded(tower, below, 1, {j: 1})) for j in range(step)]
    images = [_joined([_mul(tower, mono, c) for c in xi], step)
              for xi in powers for mono in monomials]
    d = math.lcm(*[den for den, _ in images])
    return d, [[(p, n * (d // den)) for p, n in image] for den, image in images]


def _split(a: tuple, step: int) -> list:
    """The coefficients, as forms, of the element ``a`` as a polynomial in
    the root whose powers move positions by ``step``."""
    den, terms = a
    coeffs: dict[int, list] = {}
    for p, n in terms:
        t, low = divmod(p, step)
        coeffs.setdefault(t, []).append((low, n))
    return [_reduced(den, coeffs.get(t, [])) for t in range(max(coeffs, default=-1) + 1)]


def _joined(coeffs: list, step: int) -> tuple:
    """The form of ``sum(coeffs[t] * x**t)`` for the root ``x`` whose powers
    move positions by ``step``, every coefficient holding positions below it."""
    den = math.lcm(*[d for d, _ in coeffs])
    return den, tuple((t * step + p, n * (den // d))
                      for t, (d, terms) in enumerate(coeffs) for p, n in terms)


def _inv(tower: "FieldTower", a: tuple) -> tuple:
    """The form of ``1 / a`` at ``a``'s own level."""
    den, terms = a
    if not terms:
        raise NotInvertible("division by zero")
    level = _level(tower, terms)
    if level == 0:
        n = terms[0][1]
        return (n, ((0, den),)) if n > 0 else (-n, ((0, -den),))
    if level == 1:
        inverse = _inv_by_elimination(tower, a)
        if inverse is not None:
            return inverse
    return _inv_by_euclid(tower, level, a)


def _inv_by_elimination(tower: "FieldTower", a: tuple) -> tuple | None:
    """The inverse of ``a`` at level 1, or ``None`` when ``a`` is a zero
    divisor: the solution ``y`` of ``M y = e_0`` for the matrix ``M`` of
    multiplication by ``a`` modulo the minimal polynomial, by fraction-free
    (Bareiss) elimination of an integer ``N``, and integer back-substitution
    of ``det N * y``.  ``N`` is ``M`` cleared of denominators through the
    cached fold map, then each column and each row of ``[N | b]`` divided by
    its content (dividing column ``j`` by ``g`` solves for ``g y_j``).  The
    extended Euclid's cofactors grow far faster on large coefficients."""
    deg = tower.degree(1)
    den, coords = a
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
    scale = math.lcm(*scales)  # y_i = x_i / (prev * scales[i])
    sign = 1 if prev > 0 else -1
    return _reduced(abs(prev) * scale,
                    [(i, sign * v * (scale // g)) for i, (v, g) in enumerate(zip(x, scales)) if v])


def _inv_by_euclid(tower: "FieldTower", level: int, a: tuple) -> tuple:
    """The inverse of a nonzero ``a`` at ``level`` by the extended Euclidean
    algorithm over the level below; a zero divisor raises
    :class:`ZeroDivisorSplit` with the factorization of the minimal
    polynomial it shows."""
    step = tower.sizes[level - 1]
    m = list(tower.levels[level - 1])
    # extended Euclid for gcd(a, m) over the level below
    r0, r1 = m, _poly_trim(_split(a, step))
    t0: list = []
    t1: list = [_UNIT]
    while r1:
        q, r = _poly_divmod(tower, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(tower, q, t1))
    # r0 = gcd(a, m), t0 satisfies t0*a = r0 (mod m)
    if len(r0) == 1:
        lead_inv = _inv(tower, r0[0])
        return _joined(_poly_divmod(tower, [_mul(tower, c, lead_inv) for c in t0], m)[1], step)
    # nontrivial gcd: the minimal polynomial factors
    g = _poly_monic(tower, r0)
    h, rem = _poly_divmod(tower, m, g)
    if rem:  # pragma: no cover - the gcd divides m by construction
        raise NotInvertible("exact gcd failed to divide the minimal polynomial")
    raise ZeroDivisorSplit(
        "zero divisor at tower level %d: minimal polynomial factors as a "
        "product of degrees %d and %d" % (level, len(g) - 1, len(h) - 1),
        level,
        (tuple(g), tuple(h)),
        tower,
    )


# ---------------------------------------------------------------------------
# polynomials with form coefficients (ascending degree, trimmed)


def _poly_trim(cs: list) -> list:
    while cs and not cs[-1][1]:
        cs.pop()
    return cs


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _poly_trim([_combine(a[i] if i < len(a) else _ZERO, b[i] if i < len(b) else _ZERO, -1)
                       for i in range(n)])


def _poly_mul(tower, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x[1]:
            continue
        for j, y in enumerate(b):
            out[i + j] = _combine(out[i + j], _mul(tower, x, y))
    return _poly_trim(out)


def _poly_divmod(tower, a: list, b: list) -> tuple[list, list]:
    b = _poly_trim(list(b))
    if not b:
        raise NotInvertible("polynomial division by zero")
    lead_inv = _inv(tower, b[-1])
    r = _poly_trim(list(a))
    q: list = []
    while len(r) >= len(b):
        d = len(r) - len(b)
        c = _mul(tower, r.pop(), lead_inv)  # the top term cancels
        if len(q) < d + 1:
            q.extend([_ZERO] * (d + 1 - len(q)))
        q[d] = _combine(q[d], c)
        for i, bc in enumerate(b[:-1]):
            r[d + i] = _combine(r[d + i], _mul(tower, c, bc), -1)
        _poly_trim(r)
    return _poly_trim(q), r


def _poly_monic(tower, a: list) -> list:
    a = _poly_trim(list(a))
    if not a:
        return a
    inv = _inv(tower, a[-1])
    return _poly_trim([_mul(tower, c, inv) for c in a])


def _poly_gcd(tower, a: list, b: list) -> list:
    """Monic gcd by the Euclidean algorithm."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    while r1:
        r0, r1 = r1, _poly_divmod(tower, r0, r1)[1]
    return _poly_monic(tower, r0)


def _poly_squarefree(tower, a: list) -> list:
    """``a / gcd(a, a')``, monic -- the radical of ``a`` in characteristic zero."""
    a = _poly_monic(tower, a)
    da = [_mul(tower, a[k], _rational(k)) for k in range(1, len(a))]
    q, r = _poly_divmod(tower, a, _poly_gcd(tower, a, da))
    if r:  # pragma: no cover - gcd divides
        raise NotInvertible("squarefree division failed")
    return _poly_monic(tower, q)


# ---------------------------------------------------------------------------
# public wrapper types


class FieldTower:
    """An extension tower over the rationals.

    ``levels`` is a tuple of monic minimal polynomials; polynomial ``k``
    (0-based) defines level ``k+1``, its coefficients are the forms of
    elements of level at most ``k``, stored ascending and including the
    leading 1.  ``sizes`` holds the position layout, and ``folds`` one cell
    per level for its integer fold map (:func:`_fold_map`), the cells of the
    levels below shared with the tower this one extends.
    """

    __slots__ = ("levels", "sizes", "folds")

    def __init__(self, levels: tuple = ()):
        self.levels = tuple(tuple(m) for m in levels)
        self.sizes = [math.prod(2 * len(m) - 3 for m in self.levels[:k])
                      for k in range(len(self.levels) + 1)]
        self.folds = [[] for _ in self.levels]

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
        if coeffs[-1].form != _UNIT:
            raise DomainViolation("minimal polynomial must be monic")
        if any(c.level > self.depth for c in coeffs):
            raise DomainViolation("minimal polynomial coefficients must lie in the tower")
        tower = FieldTower(self.levels + (tuple(c.form for c in coeffs),))
        tower.folds[:-1] = self.folds
        return tower

    # -- elements ----------------------------------------------------------

    def rational(self, q) -> "FieldElement":
        return FieldElement(self, _rational(q))

    def zero(self) -> "FieldElement":
        return FieldElement(self, _ZERO)

    def one(self) -> "FieldElement":
        return FieldElement(self, _UNIT)

    def gen(self, level: int | None = None) -> "FieldElement":
        """The root adjoined at ``level`` (default: the top level)."""
        lv = self.depth if level is None else level
        if lv < 1:
            raise DomainViolation("the rational level has no generator")
        return FieldElement(self, (1, ((self.sizes[lv - 1], 1),)))

    def coerce(self, x) -> "FieldElement":
        """View ``x`` as an element of this tower (or of ``x``'s own tower,
        whichever is deeper -- prefix-compatible towers share positions)."""
        if isinstance(x, FieldElement):
            return FieldElement(common_tower(x.tower, self), x.form)
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


def common_context(rows) -> FieldTower:
    """The deepest tower among the elements of ``rows``, a list of lists of
    elements, such as a matrix."""
    tower = None
    for row in rows:
        for x in row:
            if x.tower is not tower:
                tower = x.tower if tower is None else common_tower(tower, x.tower)
    if tower is None:
        raise DomainViolation("cannot infer the coefficient field of no elements")
    return tower


def _operator(kernel):
    """A binary :class:`FieldElement` operator: ``kernel(tower, a, b)`` on the
    forms of both operands, over their common tower."""

    def op(self: "FieldElement", other):
        if isinstance(other, FieldElement):
            tower = self.tower if other.tower is self.tower else common_tower(self.tower, other.tower)
            b = other.form
        elif isinstance(other, (int, Fraction)):
            tower, b = self.tower, _rational(other)
        else:
            return NotImplemented
        return FieldElement(tower, kernel(tower, self.form, b))

    return op


class FieldElement:
    """An exact scalar in a :class:`FieldTower`: the tower and the element's
    form ``(den, terms)`` (see the module docstring)."""

    __slots__ = ("tower", "form")

    def __init__(self, tower: FieldTower, form: tuple):
        self.tower = tower
        self.form = form

    @property
    def level(self) -> int:
        """The lowest level of the tower that holds this element."""
        return _level(self.tower, self.form[1])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.form[1]

    def to_fraction(self) -> Fraction:
        den, terms = self.form
        if not terms:
            return Fraction(0)
        if terms[-1][0]:
            raise DomainViolation("element is not rational")
        return Fraction(terms[0][1], den)

    # -- arithmetic ----------------------------------------------------------

    __add__ = __radd__ = _operator(lambda tower, a, b: _combine(a, b))
    __sub__ = _operator(lambda tower, a, b: _combine(a, b, -1))
    __rsub__ = _operator(lambda tower, a, b: _combine(b, a, -1))
    __mul__ = __rmul__ = _operator(_mul)

    def __neg__(self):
        den, terms = self.form
        return FieldElement(self.tower, (den, tuple((p, -n) for p, n in terms)))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, _inv(self.tower, self.form))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.form == other.form and _deeper(self.tower, other.tower) is not None
        if isinstance(other, (int, Fraction)):
            return self.form == _rational(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        den, terms = self.form
        if not terms or not terms[-1][0]:
            return f"{self.to_fraction()}"
        return f"FieldElement({den}, {terms})"
