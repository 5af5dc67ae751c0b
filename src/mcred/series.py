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

A product is the 1x1 case of :func:`mat_product`, one payload convolution
in two halves.  :func:`_accumulate` takes the integer forms of
:func:`_integral`, in which every coordinate is an integer over one
denominator per series, and sums the products unreduced per exponent and
position (the layout of :mod:`mcred.field`); terms at or past the precision
are never formed.  :func:`_materialise` turns each output coefficient into
one ``Fraction`` per coordinate after one ``field._fold`` by the minimal
polynomials, and drops zero sums.  A chain of products that needs no series
in between replaces the second half by :func:`_settle`, which folds on
integers and divides by the gcd, so that the result is again an
:func:`_integral` form, with the same integers (:func:`_form_product` for a
grid).  Three users chain forms so: the Sibuya step loop of
:mod:`mcred.leading`, whose constant maps, step gauges and leftover check
are forms too, so that it has no other integer layout; the cofactors of
``LaurentMatrix.inverse``; and the ``g G`` of ``Connection.gauge``, which
then builds each entry of ``g G g**-1 - g' g**-1`` from one accumulation.
:func:`_from_form` builds the series of a form.  :func:`_constant_forms` and
:func:`_constants` convert between grids of field elements and of constant
forms, for ``linalg.mat_mul`` and the Sibuya loop's maps and ``C_i``.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Mapping

from .errors import DomainViolation, NotInvertible, PrecisionExhausted
from .field import (FieldElement, FieldTower, _fold, _fold_nums, _nest, _over_lcm, _unfold,
                    common_tower)

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
    """One truncated Laurent series over a field tower."""

    __slots__ = ("tower", "ram", "coeffs", "prec")

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
            if not value.is_zero():
                clean[exp] = value
        for e, v in clean.items():
            if v.tower is not tower:  # a later coefficient deepened the tower
                clean[e] = FieldElement(tower, v.level, v.payload)
        self.tower = tower
        self.ram = ram
        self.coeffs = clean
        self.prec = prec

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, tower: FieldTower, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {}, INF, ram)

    @classmethod
    def one(cls, tower: FieldTower, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {0: tower.one()}, INF, ram)

    @classmethod
    def constant(cls, tower: FieldTower, value, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {0: value}, INF, ram)

    @classmethod
    def monomial(cls, tower: FieldTower, value, exp: int, ram: int = 1) -> "LaurentSeries":
        return cls(tower, {exp: value}, INF, ram)

    # -- inspection ----------------------------------------------------------

    @property
    def valuation(self):
        """Smallest exponent with a nonzero known coefficient.

        For a series with no known coefficients this is ``prec``: all we can
        say is that the series is ``O(u^prec)`` (and exactly zero if ``prec``
        is infinite).
        """
        return min(self.coeffs) if self.coeffs else self.prec

    def is_zero(self) -> bool:
        """Exactly zero (no known coefficients *and* infinite precision)."""
        return not self.coeffs and self.prec is INF

    def is_zero_to_precision(self) -> bool:
        """No nonzero coefficient in the known window."""
        return not self.coeffs

    def is_monomial(self) -> bool:
        return self.prec is INF and len(self.coeffs) == 1

    def is_exact(self) -> bool:
        return self.prec is INF

    def coeff(self, exp: int) -> FieldElement:
        if exp >= self.prec:
            raise PrecisionExhausted(
                f"coefficient at exponent {exp} requested but the series is "
                f"only known below {self.prec}",
                needed=exp + 1,
            )
        c = self.coeffs.get(exp)
        return self.tower.zero() if c is None else c

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def items(self) -> list[tuple[int, FieldElement]]:
        return sorted(self.coeffs.items())

    # -- ramification and tower housekeeping ----------------------------------

    def lift_ramification(self, m: int) -> "LaurentSeries":
        """Rewrite in the variable ``w`` with ``w**m = u`` (so ``w**(m*ram) = t``)."""
        if not isinstance(m, int) or m < 1:
            raise DomainViolation("ramification lift must be a positive int")
        if m == 1:
            return self
        prec = self.prec if self.prec is INF else m * self.prec
        return LaurentSeries(
            self.tower,
            {m * e: c for e, c in self.coeffs.items()},
            prec,
            self.ram * m,
        )

    def recast(self, tower: FieldTower, ram: int) -> "LaurentSeries":
        """This series over ``tower`` in the variable ``w`` with ``w**ram = t``.

        ``tower`` must be prefix-compatible with and at least as deep as this
        series' tower, and ``ram`` a multiple of ``self.ram``.  When neither
        changes the series itself comes back: a built series already holds
        every invariant the constructor enforces.
        """
        if ram % self.ram:
            raise DomainViolation("target ramification must be a multiple of ram")
        s = self.lift_ramification(ram // self.ram)
        if tower is s.tower:
            return s
        return LaurentSeries(tower, s.coeffs, s.prec, s.ram)

    # -- precision management --------------------------------------------------

    def truncate(self, prec) -> "LaurentSeries":
        """Forget everything at or beyond ``prec``."""
        prec = _check_prec(prec)
        new_prec = min(self.prec, prec)
        return LaurentSeries(self.tower, self.coeffs, new_prec, self.ram)

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
        prec = min(a.prec, b.prec)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return LaurentSeries(a.tower, out, prec, a.ram)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(
            self.tower, {e: -c for e, c in self.coeffs.items()}, self.prec, self.ram
        )

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self * self.tower.coerce(other).inverse()
        if isinstance(other, LaurentSeries):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainViolation("series powers take non-negative ints")
        result = LaurentSeries.one(self.tower, self.ram)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse.

        The result is known to ``prec - 2*valuation``.  An exact monomial
        inverts exactly; any other exact series has a non-terminating inverse,
        so it must be truncated first to say how much of it to produce.
        """
        if not self.coeffs:
            if self.prec is INF:
                raise NotInvertible("inverse of the zero series")
            raise PrecisionExhausted(
                "cannot invert: no nonzero coefficient in the known window",
                needed=None,
            )
        v = min(self.coeffs)
        lead = self.coeffs[v]
        lead_inv = lead.inverse()
        if self.is_monomial():
            return LaurentSeries.monomial(self.tower, lead_inv, -v, self.ram)
        if self.prec is INF:
            raise DomainViolation(
                "inverse of a non-monomial exact series does not terminate; "
                "truncate it first"
            )
        # relative precision of 1 + x where self = lead * u^v * (1 + x)
        rel = self.prec - v
        x = {e - v: c * lead_inv for e, c in self.coeffs.items() if e != v}
        b: dict[int, FieldElement] = {0: self.tower.one()}
        for k in range(1, rel):
            acc = None
            for j, xj in x.items():
                if 0 < j <= k and (k - j) in b:
                    term = xj * b[k - j]
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                b[k] = -acc
        out = {-v + k: ck * lead_inv for k, ck in b.items()}
        return LaurentSeries(self.tower, out, -v + rel, self.ram)

    def derivative(self) -> "LaurentSeries":
        """Derivative with respect to the local variable ``u``."""
        prec = self.prec if self.prec is INF else self.prec - 1
        out = {e - 1: c * e for e, c in self.coeffs.items() if e != 0}
        return LaurentSeries(self.tower, out, prec, self.ram)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the exact monomial ``u**k``."""
        if not isinstance(k, int):
            raise DomainViolation("shift exponent must be an int")
        prec = self.prec if self.prec is INF else self.prec + k
        return LaurentSeries(
            self.tower, {e + k: c for e, c in self.coeffs.items()}, prec, self.ram
        )

    # -- comparison ------------------------------------------------------------

    def coincides_with(self, other) -> bool:
        """Equal on the common known window ``(-oo, min(prec_a, prec_b))``."""
        a, b = self._pair(other)
        if a is NotImplemented:
            raise DomainViolation("cannot compare series with that type")
        hi = min(a.prec, b.prec)
        exps = set(a.coeffs) | set(b.coeffs)
        for e in exps:
            if e >= hi:
                continue
            ca = a.coeffs.get(e)
            cb = b.coeffs.get(e)
            if ca is None or cb is None:
                if not (ca or cb).is_zero():
                    return False
            elif ca != cb:
                return False
        return True

    def __eq__(self, other) -> bool:
        """Identical mathematical data: same coefficients *and* same precision."""
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a.prec == b.prec and a.coeffs == b.coeffs

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
# the product kernel


def _refold(tower: FieldTower, nums: dict, den: int) -> FieldElement:
    """The element with unreduced coordinates ``nums[position] / den`` at the
    lowest level holding their positions."""
    level = bisect.bisect_right(tower.sizes, max(nums))
    return FieldElement(tower, level, _fold(tower, level, nums, den))


def _integral(s: LaurentSeries, ram: int, size: int):
    """``(valuation, prec, den, terms)`` of ``s`` in ``w**ram = t``, or ``None``
    when ``s`` is exactly zero; ``terms`` lists ``(e * size + position,
    numerator)`` over ``den`` by key for the coordinates of ``w**e``."""
    if s.is_zero():
        return None
    m = ram // s.ram
    den, terms = _over_lcm(sorted(kq for e, c in s.coeffs.items()
                                  for kq in _unfold(s.tower, c.level, c.payload, e * m * size)))
    return s.valuation * m, s.prec * m, den, terms


def _accumulate(size: int, pairs) -> tuple:
    """``(prec, den, acc)``: ``sum(a * b for a, b in pairs)`` of :func:`_integral`
    forms, known below ``prec``, as unreduced numerators ``acc[e * size +
    position]`` over ``den``; terms at or past ``prec`` are never formed."""
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
    return prec, den, acc


def _by_exponent(acc: dict, size: int) -> dict:
    """``{e: {position: numerator}}``: the nonzero entries of an accumulation."""
    grouped: dict[int, dict[int, int]] = {}
    for k, n in acc.items():
        if n:
            e, pos = divmod(k, size)
            grouped.setdefault(e, {})[pos] = n
    return grouped


def _materialise(tower: FieldTower, ram: int, prec, den: int, acc: dict) -> LaurentSeries:
    """The series of an :func:`_accumulate` result, one :func:`_refold` per
    exponent; zero coefficients are dropped."""
    grouped = _by_exponent(acc, tower.sizes[-1])
    return LaurentSeries(tower, {e: _refold(tower, nums, den) for e, nums in grouped.items()},
                         prec, ram)


def _settle(tower: FieldTower, prec, den: int, acc: dict):
    """``_integral(_materialise(tower, ram, prec, den, acc), ram, size)``
    without building the series: every exponent is reduced by the integer
    fold of ``tower``'s top level, then the numerators and the denominator
    are divided by their gcd, which leaves the lcm of the reduced coordinate
    denominators, as :func:`_integral` has it."""
    size, level = tower.sizes[-1], tower.depth
    if level == 0:
        d, terms = 1, sorted((k, n) for k, n in acc.items() if n)
    else:
        terms = []
        for e, nums in sorted(_by_exponent(acc, size).items()):
            d, reduced = _fold_nums(tower, level, nums)
            base = e * size
            terms += sorted((base + p, n) for p, n in reduced.items() if n)
    if not terms:
        return None if prec == INF else (prec, prec, 1, [])
    den *= d
    g = math.gcd(den, *[n for _, n in terms])
    if g > 1:
        den, terms = den // g, [(k, n // g) for k, n in terms]
    return terms[0][0] // size, prec, den, terms


def _from_form(tower: FieldTower, ram: int, form) -> LaurentSeries:
    """The series whose :func:`_integral` form over ``tower`` is ``form``."""
    if form is None:
        return LaurentSeries.zero(tower, ram)
    return _materialise(tower, ram, form[1], form[2], dict(form[3]))


def _negated(form):
    """The :func:`_integral` form of ``-s``, for the form of ``s``."""
    return form and (form[0], form[1], form[2], [(k, -n) for k, n in form[3]])


def _forms(grid, ram: int, size: int) -> list:
    """The :func:`_integral` forms of a grid of series."""
    return [[_integral(s, ram, size) for s in row] for row in grid]


def _constant_forms(grid) -> list:
    """The :func:`_integral` forms of a grid of field elements, as constant
    series over any tower that holds them."""
    forms = [[(0, INF, *_over_lcm(_unfold(x.tower, x.level, x.payload))) for x in row]
             for row in grid]
    return [[f if f[3] else None for f in row] for row in forms]


def _constants(tower: FieldTower, level: int, forms: list) -> list:
    """The field elements at ``level`` of ``tower`` whose constant forms are
    ``forms``, a grid; every key must name a position of that level."""
    return [[FieldElement(tower, level, _nest(tower, level, dict(f[3]), f[2])) if f
             else tower.zero(level) for f in row] for row in forms]


def _form_product(tower: FieldTower, a: list, b: list) -> list:
    """The product of two grids of forms over ``tower``, as a grid of forms."""
    size = tower.sizes[-1]
    cols = list(zip(*b))
    return [[_settle(tower, *_accumulate(size, zip(row, col))) for col in cols] for row in a]


def mat_product(tower: FieldTower, ram: int, a, b) -> list[list[LaurentSeries]]:
    """The product of two grids of series over ``tower`` in ``w**ram = t``, a
    common tower and ramification of the entries; each entry converts once."""
    if len(a[0]) != len(b):
        raise DomainViolation("matrix shapes incompatible in product")
    size = tower.sizes[-1]
    cols = list(zip(*_forms(b, ram, size)))
    return [[_materialise(tower, ram, *_accumulate(size, zip(row, col))) for col in cols]
            for row in _forms(a, ram, size)]
