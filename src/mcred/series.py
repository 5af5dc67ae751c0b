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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainViolation, NotInvertible, PrecisionExhausted
from .field import FieldElement, FieldTower, common_tower

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

    def __init__(self, tower: FieldTower, coeffs=None, prec=INF, ram: int = 1):
        prec = _check_prec(prec)
        if not isinstance(ram, int) or ram < 1:
            raise DomainViolation("ramification index must be a positive int")
        items: Iterable = ()
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        elif coeffs is not None:
            items = coeffs
        clean: dict[int, FieldElement] = {}
        for exp, value in items:
            if not isinstance(exp, int):
                raise DomainViolation("exponents must be integers")
            if exp >= prec:
                continue  # a coefficient at or past the precision carries no information
            element = tower.coerce(value)
            if element.tower is not tower and element.tower != tower:
                tower = common_tower(tower, element.tower)
            if not element.is_zero():
                clean[exp] = element
        if clean:
            # re-coerce in case a later coefficient deepened the tower
            clean = {e: tower.coerce(v) for e, v in clean.items()}
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

    def with_tower(self, tower: FieldTower) -> "LaurentSeries":
        return self.recast(common_tower(self.tower, tower), self.ram)

    # -- precision management --------------------------------------------------

    def truncate(self, prec) -> "LaurentSeries":
        """Forget everything at or beyond ``prec``."""
        prec = _check_prec(prec)
        new_prec = min(self.prec, prec)
        return LaurentSeries(self.tower, self.coeffs, new_prec, self.ram)

    def restrict(self, lo: int, hi) -> "LaurentSeries":
        """Keep only exponents in ``[lo, hi)`` as an *exact* polynomial.

        Raises if the window is not fully known.
        """
        hi = _check_prec(hi)
        if hi > self.prec:
            raise PrecisionExhausted(
                f"window [{lo}, {hi}) exceeds known precision {self.prec}",
                needed=None if hi is INF else hi,
            )
        return LaurentSeries(
            self.tower,
            {e: c for e, c in self.coeffs.items() if lo <= e < hi},
            INF,
            self.ram,
        )

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
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return b + (-a)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        if a.is_zero() or b.is_zero():
            return LaurentSeries.zero(a.tower, a.ram)
        prec = min(a.valuation + b.prec, b.valuation + a.prec)
        out: dict[int, FieldElement] = {}
        for ea, ca in a.coeffs.items():
            for eb, cb in b.coeffs.items():
                e = ea + eb
                if e >= prec:
                    continue
                term = ca * cb
                out[e] = out[e] + term if e in out else term
        return LaurentSeries(a.tower, out, prec, a.ram)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            inv = self.tower.coerce(other).inverse()
            return self * inv
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

    def inverse(self, prec_cap=None) -> "LaurentSeries":
        """Multiplicative inverse.

        The result is known to ``prec - 2*valuation``.  An exact monomial
        inverts exactly; any other exact series has a non-terminating inverse
        and requires ``prec_cap`` to say how much of it to produce.
        """
        if prec_cap is not None:
            prec_cap = _check_prec(prec_cap)
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
            result = LaurentSeries.monomial(self.tower, lead_inv, -v, self.ram)
            return result if prec_cap is None else result.truncate(prec_cap)
        # relative precision of 1 + x where self = lead * u^v * (1 + x)
        rel = INF if self.prec is INF else self.prec - v
        if rel is INF:
            if prec_cap is None:
                raise DomainViolation(
                    "inverse of a non-monomial exact series does not terminate; "
                    "pass prec_cap"
                )
            rel = prec_cap + v
        elif prec_cap is not None:
            rel = min(rel, prec_cap + v)
        if rel <= 0:
            return LaurentSeries(self.tower, {}, -v + rel, self.ram)
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
        if isinstance(other, (int, Fraction, FieldElement)) or isinstance(
            other, LaurentSeries
        ):
            a, b = self._pair(other)
            if a is NotImplemented:
                return NotImplemented
            return a.prec == b.prec and a.coeffs == b.coeffs
        return NotImplemented

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
