"""Truncated Laurent series with explicit precision accounting.

A series is a finite set of known coefficients ``c_i u^i`` together with a
precision ``prec``: the coefficients are known exactly for every exponent
``i < prec`` and *unknown* (not zero!) from ``prec`` on.  ``prec`` may be
``INF`` for exactly known Laurent polynomials.  Every operation computes the
best precision it can honestly promise:

* ``a + b``          -> ``min(prec_a, prec_b)``
* ``a * b``          -> ``min(val_a + prec_b, val_b + prec_a)``
* ``a.inverse()``    -> ``prec_a - 2 * val_a``
* ``a.derivative()`` -> ``prec_a - 1``

Asking for a coefficient at or beyond the precision raises
:class:`PrecisionExhausted` instead of guessing.

The variable is ``u`` with ``u**ram = t`` for a ramification index
``ram >= 1``; exponents are integers in ``u``, i.e. multiples of ``1/ram`` in
``t``.  Binary operations lift both operands to the least common ramification.

A series is its integer form (:func:`_integral`): every coordinate of every
coefficient is an integer over one denominator, keyed by exponent and
position (the layout of :mod:`mcred.field`), divided by the gcd, so that
equal series have equal forms.  The constructor computes the form once,
every operation reads and builds forms, and a series holds nothing else:
``coeffs`` and ``items`` build their ``FieldElement`` coefficients from the
form on each read, and ``coeff`` builds the one it is asked for.

A product is the 1x1 case of :func:`mat_product`, one integer convolution:
:func:`_sum_of_products` sums the products of the forms' numerators
unreduced by key (exponent and position), never forming a term at or past
the precision, folds every key in one pass by the minimal polynomials on
integers (:func:`field._folded`) and divides by the gcd, so that the result
is again a form (:func:`_form_product` for a grid).  A sum is the same call
against the form of 1.  A chain of products that needs no series in
between stays on forms, and only a caller that wants a series builds one
(:func:`_from_form`): the Sibuya step loop of
:mod:`mcred.leading`, the cofactors of ``LaurentMatrix.inverse``, the
``g G`` of ``Connection.gauge``, and Newton's inverse (:func:`_inverted`).

A constant matrix multiplies on no series: :func:`_gathered` holds it as
``(den, parts)``, one integer matrix per coordinate position over one
common denominator, and :func:`_matrix_product` does one integer matrix
product per pair of positions, one fold of the summed positions and one
gcd; over Q that is one integer matrix product.  Every constant product
runs there: ``linalg.mat_mul``, ``charpoly`` and ``poly_at_matrix``, and
the Sibuya loop's step map, powers, ``C_i`` and leftover check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Mapping

from .errors import DomainViolation, NotInvertible, PrecisionExhausted
from .field import FieldElement, FieldTower, _fold_map, _folded, _inv, _reduced, common_tower

INF = math.inf


def _check_prec(prec):
    """Validate a precision and hand back its canonical form.

    Arithmetic like ``valuation + other.prec`` produces fresh ``inf`` floats;
    pinning them all to the module's ``INF`` keeps ``prec is INF`` the one
    idiom every consumer needs.
    """
    if prec == INF:
        return INF
    if not isinstance(prec, int):
        raise DomainViolation(f"precision must be an int or INF, got {prec!r}")
    return prec


class LaurentSeries:
    """One truncated Laurent series over a field tower.

    ``form`` is its :func:`_integral` form over its own tower and
    ramification, ``None`` for the exact zero; the coefficients are read
    off it.
    """

    __slots__ = ("tower", "ram", "prec", "form")

    def __init__(self, tower: FieldTower, coeffs: Mapping, prec=INF, ram: int = 1):
        prec = _check_prec(prec)
        if not isinstance(ram, int) or ram < 1:
            raise DomainViolation("ramification index must be a positive int")
        clean: dict[int, FieldElement] = {}
        for exp, value in coeffs.items():
            if not isinstance(exp, int):
                raise DomainViolation("exponents must be integers")
            if exp >= prec:
                continue  # a coefficient at or past the precision carries no information
            if isinstance(value, FieldElement):
                if value.tower is not tower:
                    tower = common_tower(tower, value.tower)
            else:
                value = tower.coerce(value)
            if value.form[1]:
                clean[exp] = value
        self.tower, self.ram, self.prec = tower, ram, prec
        self.form = _form_of(tower.sizes[-1], prec, clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, tower: FieldTower, ram: int = 1) -> "LaurentSeries":
        return _from_form(tower, ram, None)

    @classmethod
    def one(cls, tower: FieldTower, ram: int = 1) -> "LaurentSeries":
        return _from_form(tower, ram, _ONE)

    @classmethod
    def constant(cls, tower: FieldTower, value, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {0: value}, INF, ram)

    @classmethod
    def monomial(cls, tower: FieldTower, value, exp: int, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {exp: value}, INF, ram)

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """``{exp: FieldElement}`` for the known nonzero coefficients, built
        from ``form`` on each read (:func:`_view_of`)."""
        return _view_of(self.tower, self.form)

    @property
    def valuation(self):
        """Smallest exponent with a nonzero known coefficient.

        For a series with no known coefficients this is ``prec``: all we can
        say is that the series is ``O(u^prec)`` (and exactly zero if ``prec``
        is infinite).
        """
        return INF if self.form is None else self.form[0]

    def is_zero(self) -> bool:
        """Exactly zero (no known coefficients *and* infinite precision)."""
        return self.form is None

    def is_zero_to_precision(self) -> bool:
        """No nonzero coefficient in the known window."""
        return self.form is None or not self.form[3]

    def is_monomial(self) -> bool:
        return self.prec is INF and len(self.support()) == 1

    def is_exact(self) -> bool:
        return self.prec is INF

    def coeff(self, exp: int) -> FieldElement:
        if exp >= self.prec:
            raise PrecisionExhausted(
                f"coefficient at exponent {exp} requested but the series is "
                f"only known below {self.prec}",
                needed=exp + 1,
            )
        if self.form is None:
            return self.tower.zero()
        _, _, den, terms = self.form
        size = self.tower.sizes[-1]
        base = exp * size
        lo = bisect_left(terms, (base,))  # the slice of the keys of u**exp
        hi = bisect_left(terms, (base + size,), lo)
        return FieldElement(self.tower, _reduced(den, [(k - base, n) for k, n in terms[lo:hi]]))

    def support(self) -> list[int]:
        if self.form is None:
            return []
        size = self.tower.sizes[-1]
        return sorted({k // size for k, _ in self.form[3]})

    def items(self) -> list[tuple[int, FieldElement]]:
        return sorted(self.coeffs.items())

    # -- ramification and tower housekeeping ----------------------------------

    def lift_ramification(self, m: int) -> "LaurentSeries":
        """Rewrite in the variable ``w`` with ``w**m = u`` (so ``w**(m*ram) = t``)."""
        if not isinstance(m, int) or m < 1:
            raise DomainViolation("ramification lift must be a positive int")
        return self.recast(self.tower, self.ram * m)

    def recast(self, tower: FieldTower, ram: int) -> "LaurentSeries":
        """This series over ``tower`` in the variable ``w`` with ``w**ram = t``.

        ``tower`` must be prefix-compatible with and at least as deep as this
        series' tower, and ``ram`` a multiple of ``self.ram``.  When neither
        changes the series itself comes back.
        """
        if ram % self.ram:
            raise DomainViolation("target ramification must be a multiple of ram")
        if tower is self.tower and ram == self.ram:
            return self
        return _from_form(tower, ram, _integral(self, ram, tower.sizes[-1]))

    # -- precision management --------------------------------------------------

    def truncate(self, prec) -> "LaurentSeries":
        """Forget everything at or beyond ``prec``."""
        prec = _check_prec(prec)
        if prec >= self.prec:
            return self
        return _from_form(self.tower, self.ram, _truncated(self.form, prec, self.tower.sizes[-1]))

    # -- arithmetic ------------------------------------------------------------

    def _pair(self, other) -> tuple["LaurentSeries", "LaurentSeries"]:
        if isinstance(other, LaurentSeries):
            b = other
        elif isinstance(other, (int, Fraction, FieldElement)):
            b = LaurentSeries.constant(self.tower, other, self.ram)
        else:
            return NotImplemented, NotImplemented
        tower = common_tower(self.tower, b.tower)
        ram = math.lcm(self.ram, b.ram)
        return self.recast(tower, ram), b.recast(tower, ram)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        form = _sum_of_products(a.tower, [(a.form, _ONE), (b.form, _ONE)])
        return _from_form(a.tower, a.ram, form)

    __radd__ = __add__

    def __neg__(self):
        return _from_form(self.tower, self.ram, _negated(self.form))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return mat_product(a.tower, a.ram, [[a]], [[b]])[0][0]

    __rmul__ = __mul__

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse, known to ``prec - 2*valuation``
        (:func:`_inverted`); an exact non-monomial is refused: truncate it."""
        return _from_form(self.tower, self.ram, _inverted(self.tower, self.form))

    def derivative(self) -> "LaurentSeries":
        """Derivative with respect to the local variable ``u``."""
        return _from_form(self.tower, self.ram, _derived(self.form, self.tower.sizes[-1]))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the exact monomial ``u**k``."""
        if not isinstance(k, int):
            raise DomainViolation("shift exponent must be an int")
        if self.form is None:
            return self
        v, prec, den, terms = self.form
        step = k * self.tower.sizes[-1]
        return _from_form(self.tower, self.ram,
                          (v + k, prec + k, den, [(key + step, n) for key, n in terms]))

    # -- comparison ------------------------------------------------------------

    def coincides_with(self, other) -> bool:
        """Equal on the common known window ``(-oo, min(prec_a, prec_b))``."""
        a, b = self._pair(other)
        if a is NotImplemented:
            raise DomainViolation("cannot compare series with that type")
        hi = min(a.prec, b.prec)
        return a.truncate(hi).form == b.truncate(hi).form

    def __eq__(self, other) -> bool:
        """Identical mathematical data: same coefficients *and* same precision."""
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a.form == b.form

    __hash__ = None  # type: ignore[assignment]

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        def fmt_exp(e: int) -> str:
            q = Fraction(e, self.ram)
            if q == 0:
                return ""
            if q == 1:
                return "*t"
            if q.denominator == 1:
                return f"*t^{q.numerator}"
            return f"*t^({q})"

        parts = [f"({c!r}){fmt_exp(e)}" for e, c in self.items()]
        if self.prec is not INF:
            q = Fraction(self.prec, self.ram)
            tail = f"O(t^{q.numerator})" if q.denominator == 1 else f"O(t^({q}))"
            parts.append(tail)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# integer forms and the product kernel

_ONE = (0, INF, 1, [(0, 1)])  # the :func:`_integral` form of the exact series 1


def _view_of(tower: FieldTower, form) -> dict:
    """``{exp: FieldElement}`` of the :func:`_integral` form ``form`` over
    ``tower``: one element per exponent, its positions in ascending order."""
    size, grouped = tower.sizes[-1], {}
    for k, n in form[3] if form else []:
        grouped.setdefault(k // size, []).append((k % size, n))
    return {e: FieldElement(tower, _reduced(form[2], pairs)) for e, pairs in grouped.items()}


def _integral(s: LaurentSeries, ram: int, size: int):
    """``(valuation, prec, den, terms)`` of ``s`` in ``w**ram = t``, or ``None``
    when ``s`` is exactly zero; ``terms`` lists ``(e * size + position,
    numerator)`` over ``den`` by key for the coordinates of ``w**e``, with
    ``den`` the least common denominator of the coordinates.  ``s.form`` is
    the form over its own tower and ramification; a larger ``size`` or
    ``ram`` re-keys it."""
    form, m, old = s.form, ram // s.ram, s.tower.sizes[-1]
    if form is None or (m == 1 and old == size):
        return form
    v, prec, den, terms = form
    return v * m, prec * m, den, [(k // old * m * size + k % old, n) for k, n in terms]


def _normal(size: int, prec, den: int, terms: list):
    """The :func:`_integral` form of the nonzero ``(key, numerator)`` pairs
    ``terms`` over ``den``, sorted by key and all below ``prec``: both
    divided by their gcd, ``(prec, prec, 1, [])`` when nothing is left of a
    truncated series and ``None`` when nothing is left of an exact one."""
    if not terms:
        return None if prec == INF else (prec, prec, 1, [])
    g = math.gcd(den, *[n for _, n in terms])
    if g > 1:
        den, terms = den // g, [(k, n // g) for k, n in terms]
    return terms[0][0] // size, prec, den, terms


def _truncated(form, prec, size: int):
    """The :func:`_integral` form ``form`` known only below ``prec``."""
    den, terms = (1, []) if form is None else form[2:]
    return _normal(size, prec, den, [t for t in terms if t[0] < prec * size])


def _form_of(size: int, prec, elements: dict):
    """The :func:`_integral` form of the nonzero coefficients ``{exp:
    FieldElement}`` below ``prec``: over the lcm of the elements'
    denominators, the gcd is already 1."""
    if not elements:
        return _normal(size, prec, 1, [])
    den = math.lcm(*[x.form[0] for x in elements.values()])
    terms = [(e * size + p, n * (den // d)) for e, x in sorted(elements.items())
             for d, pairs in [x.form] for p, n in pairs]
    return terms[0][0] // size, prec, den, terms


def _derived(form, size: int):
    """The :func:`_integral` form of ``s.derivative()``, for the form of ``s``
    over a tower of ``size`` positions."""
    if form is None:
        return None
    _, prec, den, terms = form
    return _normal(size, prec if prec == INF else prec - 1, den,
                   [(k - size, n * e) for k, n in terms if (e := k // size)])


def _sum_of_products(tower: FieldTower, pairs):
    """The :func:`_integral` form of ``sum(a * b for a, b in pairs)`` for forms
    over ``tower``: known below the least precision of a pair with no exact
    zero, the numerator products summed unreduced by key over the lcm of the
    pairs' denominators (terms at or past the precision are never formed),
    every key folded in one pass by the top level (:func:`field._folded`),
    then sorted and divided by the gcd (:func:`_normal`)."""
    size = tower.sizes[-1]
    live = [(a, b) for a, b in pairs if a and b]  # an exact zero adds no precision
    prec = min((min(a[0] + b[1], b[0] + a[1]) for a, b in live), default=INF)
    den = math.lcm(*[a[2] * b[2] for a, b in live])
    acc: dict[int, int] = {}
    for (_, _, da, ta), (_, _, db, tb) in live:
        scale = den // (da * db)
        for ka, na in ta:
            lim = (prec - ka // size) * size  # keys of b below it keep e < prec
            na *= scale
            for kb, nb in tb:
                if kb >= lim:
                    break
                acc[ka + kb] = acc.get(ka + kb, 0) + na * nb
    return _normal(size, prec, *_folded(tower, tower.depth, den, acc))


def _from_form(tower: FieldTower, ram: int, form) -> LaurentSeries:
    """The series whose :func:`_integral` form over ``tower`` in ``w**ram =
    t`` is ``form``."""
    s = LaurentSeries.__new__(LaurentSeries)
    s.tower, s.ram, s.form = tower, ram, form
    s.prec = INF if form is None or form[1] == INF else form[1]
    return s


def _negated(form):
    """The :func:`_integral` form of ``-s``, for the form of ``s``."""
    return form and (form[0], form[1], form[2], [(k, -n) for k, n in form[3]])


def _forms(grid, ram: int, size: int) -> list:
    """The :func:`_integral` forms of a grid of series."""
    return [[_integral(s, ram, size) for s in row] for row in grid]


def _form_product(tower: FieldTower, a: list, b: list) -> list:
    """The product of two grids of forms over ``tower``, as a grid of forms."""
    cols = list(zip(*b))
    return [[_sum_of_products(tower, zip(row, col)) for col in cols] for row in a]


def mat_product(tower: FieldTower, ram: int, a, b) -> list[list[LaurentSeries]]:
    """The product of two grids of series over ``tower`` in ``w**ram = t``, a
    common tower and ramification of the entries; each entry converts once."""
    if len(a[0]) != len(b):
        raise DomainViolation("matrix shapes incompatible in product")
    size = tower.sizes[-1]
    return [[_from_form(tower, ram, f) for f in row]
            for row in _form_product(tower, _forms(a, ram, size), _forms(b, ram, size))]


def _inverted(tower: FieldTower, form):
    """The :func:`_integral` form of ``1 / s``, for the form of ``s`` over
    ``tower``, known below ``prec - 2v`` for the valuation ``v``: the lead
    inverted by :func:`field._inv`, then Newton's ``y <- y + y (1 - a y)``
    (von zur Gathen–Gerhard, ch. 9) with ``a`` the series known below ``v +
    k``, ``k`` doubling up to ``prec - v``, and ``y`` held exact between
    rounds.  An exact monomial inverts exactly; any other exact series is
    refused."""
    if form is None:
        raise NotInvertible("inverse of the zero series")
    v, prec, den, terms = form
    if not terms:
        raise PrecisionExhausted("cannot invert: no nonzero coefficient in the known window",
                                 needed=None)
    size = tower.sizes[-1]
    base = v * size
    lead = bisect_left(terms, (base + size,))
    d, inv = _inv(tower, _reduced(den, [(k - base, n) for k, n in terms[:lead]]))
    keys = [(p - base, n) for p, n in inv]
    if prec == INF:
        if lead == len(terms):
            return -v, INF, d, keys
        raise DomainViolation("inverse of a non-monomial exact series does not terminate; "
                              "truncate it first")
    rel, k = prec - v, 1
    while k < rel:
        k, y = min(2 * k, rel), (-v, INF, d, keys)
        a = (v, v + k, den, terms[:bisect_left(terms, ((v + k) * size,))])
        t = _sum_of_products(tower, [(_ONE, _ONE), (_negated(a), y)])
        _, _, d, keys = _sum_of_products(tower, [(y, _ONE), (y, t)])
    return -v, prec - 2 * v, d, keys


def _gathered(rows: int, cols: int, coords: list) -> tuple:
    """``(den, parts)``: the ``rows`` by ``cols`` matrix with coordinate ``num /
    d`` at ``position`` of entry ``(i, j)`` for each ``(i, j, position, num,
    d)`` of ``coords``, ``parts[position]`` holding the entries' numerators
    there over their least common denominator; part 0 is always present."""
    den = math.lcm(*[d for *_, d in coords])
    parts = {0: [[0] * cols for _ in range(rows)]}
    for i, j, pos, num, d in coords:
        if pos not in parts:
            parts[pos] = [[0] * cols for _ in range(rows)]
        parts[pos][i][j] = num * (den // d)
    return den, parts


def _matrix_form(grid) -> tuple:
    """The :func:`_gathered` matrix of a grid of field elements."""
    return _gathered(len(grid), len(grid[0]), [
        (i, j, pos, num, x.form[0]) for i, row in enumerate(grid)
        for j, x in enumerate(row) for pos, num in x.form[1]])


def _add_to(parts: dict, pos: int, m: list) -> None:
    """Add the integer matrix ``m`` to ``parts[pos]``, or make it that."""
    if pos in parts:
        m = [[x + y for x, y in zip(r, w)] for r, w in zip(parts[pos], m)]
    parts[pos] = m


def _matrix_product(tower: FieldTower, a: tuple, b: tuple) -> tuple:
    """The product of two :func:`_gathered` matrices over ``tower``: one
    integer matrix product per pair of parts, summed at the sum of their
    positions, one fold of those sums by the cached integer map of
    ``tower``'s top level (:func:`field._fold_map`), and one division by the gcd
    of every numerator and the denominator.  Over Q there is one part."""
    (da, pa), (db, pb) = a, b
    acc: dict[int, list] = {}
    for q, y in pb.items():
        cols = list(zip(*y))
        for p, x in pa.items():
            _add_to(acc, p + q, [[sum(u * v for u, v in zip(row, col) if u) for col in cols]
                                 for row in x])
    d, parts = 1, acc
    if tower.depth:
        d, images = _fold_map(tower, tower.depth)
        parts = {}
        for pos, m in acc.items():
            for p, r in images[pos]:
                _add_to(parts, p, [[r * v for v in row] for row in m])
    den = da * db * d
    g = math.gcd(den, *[v for m in parts.values() for row in m for v in row])
    return den // g, {p: [[v // g for v in row] for row in m] for p, m in parts.items()}


def _is_zero(form: tuple) -> bool:
    """Whether a :func:`_gathered` matrix is zero."""
    return not any(v for m in form[1].values() for row in m for v in row)


def _elements(tower: FieldTower, form: tuple) -> list:
    """The grid of field elements of ``tower`` with the :func:`_gathered`
    matrix ``form``."""
    den, parts = form
    order = sorted(parts)
    return [[FieldElement(tower, _reduced(den, [(p, n) for p, n in zip(order, nums) if n]))
             for nums in zip(*rows)] for rows in zip(*[parts[p] for p in order])]
