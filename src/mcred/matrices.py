"""Square (and occasionally rectangular) matrices of truncated Laurent series.

All entries of one matrix share the same coefficient tower and ramification
index; the constructor normalises both.  Valuation and precision of a matrix
are the minima over its entries, which is exactly the right aggregate for the
gauge-theoretic precision bookkeeping done upstream.  A product runs the
payload kernel :func:`series.mat_product` once for the whole matrix: entry
``(i, j)`` is known to ``min_k min(val a_ik + prec b_kj, val b_kj + prec a_ik)``
over the ``k`` whose factors are both nonzero, as if summed term by term.

Inverses go through the classical adjugate so that the only series inversion
is the determinant's.  The cofactors are expanded division-free on the
product kernel's integer forms, and every entry of the inverse is built
once.  The exponential is honest about precision: for a truncated argument
of valuation >= 1 the result carries the argument's precision, and an exact
argument must be nilpotent because its exponential would not terminate
otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import DomainViolation, NotNilpotent
from .field import FieldElement, FieldTower, common_tower
from .series import (INF, LaurentSeries, _accumulate, _forms, _integral, _materialise,
                     _negated, _settle, mat_product)


def _as_series(tower: FieldTower, ram: int, x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction, FieldElement)):
        return LaurentSeries.constant(tower, x, ram)
    raise DomainViolation(f"cannot use {type(x).__name__} as a matrix entry")


class LaurentMatrix:
    """A matrix with :class:`LaurentSeries` entries."""

    __slots__ = ("tower", "ram", "entries")

    def __init__(self, tower: FieldTower, entries: Sequence[Sequence], ram: int = 1):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise DomainViolation("matrices must have at least one entry")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainViolation("ragged matrix")
        # the one place where a matrix's entries agree on tower and ramification
        for r in rows:
            for x in r:
                if isinstance(x, LaurentSeries):
                    tower = common_tower(tower, x.tower)
                    ram = math.lcm(ram, x.ram)
                elif isinstance(x, FieldElement):
                    tower = common_tower(tower, x.tower)
        self.tower = tower
        self.ram = ram
        self.entries = [[_as_series(tower, ram, x).recast(tower, ram) for x in r]
                        for r in rows]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, tower: FieldTower, rows: int, cols: int | None = None, ram: int = 1):
        cols = rows if cols is None else cols
        z = LaurentSeries.zero(tower, ram)
        return cls(tower, [[z] * cols for _ in range(rows)], ram)

    @classmethod
    def identity(cls, tower: FieldTower, n: int, ram: int = 1):
        z = LaurentSeries.zero(tower, ram)
        one = LaurentSeries.one(tower, ram)
        return cls(
            tower, [[one if i == j else z for j in range(n)] for i in range(n)], ram
        )

    @classmethod
    def constant(cls, tower: FieldTower, rows: Sequence[Sequence], ram: int = 1):
        """Exact matrix of constants (ints, Fractions or field elements)."""
        return cls(
            tower,
            [[LaurentSeries.constant(tower, x, ram) for x in r] for r in rows],
            ram,
        )

    @classmethod
    def diagonal(cls, tower: FieldTower, diag: Sequence, ram: int = 1):
        n = len(diag)
        z = LaurentSeries.zero(tower, ram)
        rows = [[z] * n for _ in range(n)]
        for i, d in enumerate(diag):
            rows[i][i] = _as_series(tower, ram, d)
        return cls(tower, rows, ram)

    @classmethod
    def monomial_diagonal(cls, tower: FieldTower, exps: Sequence[int], ram: int = 1):
        """``diag(u**e_1, ..., u**e_n)`` -- the standard shearing gauge."""
        return cls.diagonal(
            tower,
            [LaurentSeries.monomial(tower, 1, e, ram) for e in exps],
            ram,
        )

    @classmethod
    def from_coeff_map(cls, tower: FieldTower, coeff_map, size: int,
                       prec=INF, ram: int = 1):
        """Build from ``{exponent: scalar matrix}`` with one shared precision."""
        grids: dict[int, list] = {}
        for exp, grid in coeff_map.items():
            grids[exp] = [[tower.coerce(x) for x in row] for row in grid]
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                coeffs = {e: g[i][j] for e, g in grids.items()}
                row.append(LaurentSeries(tower, coeffs, prec, ram))
            rows.append(row)
        return cls(tower, rows, ram)

    # -- shape and access ------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def size(self) -> int:
        if self.nrows != self.ncols:
            raise DomainViolation("matrix is not square")
        return self.nrows

    def entry(self, i: int, j: int) -> LaurentSeries:
        return self.entries[i][j]

    @property
    def valuation(self):
        return min(s.valuation for r in self.entries for s in r)

    @property
    def prec(self):
        return min(s.prec for r in self.entries for s in r)

    def support(self) -> list[int]:
        exps = {e for r in self.entries for s in r for e in s.coeffs}
        return sorted(exps)

    def coeff_matrix(self, exp: int) -> list:
        """The scalar matrix of ``u**exp`` coefficients (entries must know it)."""
        return [[s.coeff(exp) for s in r] for r in self.entries]

    def is_zero(self) -> bool:
        return all(s.is_zero() for r in self.entries for s in r)

    def is_zero_to_precision(self) -> bool:
        return all(s.is_zero_to_precision() for r in self.entries for s in r)

    def is_exact(self) -> bool:
        return all(s.is_exact() for r in self.entries for s in r)

    # -- housekeeping ------------------------------------------------------------

    def truncate(self, prec) -> "LaurentMatrix":
        return LaurentMatrix(
            self.tower, [[s.truncate(prec) for s in r] for r in self.entries], self.ram
        )

    def lift_ramification(self, m: int) -> "LaurentMatrix":
        if not isinstance(m, int) or m < 1:
            raise DomainViolation("ramification lift must be a positive int")
        return LaurentMatrix(self.tower, self.entries, self.ram * m)

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(self.tower, linalg.transpose(self.entries), self.ram)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LaurentMatrix":
        return LaurentMatrix(
            self.tower,
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
            self.ram,
        )

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return LaurentMatrix(self.tower, linalg.mat_add(self.entries, other.entries), self.ram)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentMatrix(self.tower, linalg.mat_neg(self.entries), self.ram)

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            tower, ram = common_tower(self.tower, other.tower), math.lcm(self.ram, other.ram)
            return LaurentMatrix(tower, mat_product(tower, ram, self.entries, other.entries), ram)
        if isinstance(other, (int, Fraction, FieldElement, LaurentSeries)):
            return LaurentMatrix(self.tower, linalg.mat_scale(other, self.entries), self.ram)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement, LaurentSeries)):
            return self * other
        return NotImplemented

    def shift(self, k: int) -> "LaurentMatrix":
        return LaurentMatrix(
            self.tower, [[s.shift(k) for s in r] for r in self.entries], self.ram
        )

    def derivative(self) -> "LaurentMatrix":
        """Entrywise derivative with respect to the local variable ``u``."""
        return LaurentMatrix(
            self.tower, [[s.derivative() for s in r] for r in self.entries], self.ram
        )

    def trace(self) -> LaurentSeries:
        return linalg.trace(self.entries)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return linalg.mat_eq(self.entries, other.entries)

    __hash__ = None  # type: ignore[assignment]

    def coincides_with(self, other: "LaurentMatrix") -> bool:
        """Entrywise agreement on each pair's common known window."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            x.coincides_with(y)
            for ra, rb in zip(self.entries, other.entries)
            for x, y in zip(ra, rb)
        )

    # -- inversion ---------------------------------------------------------------

    def inverse(self) -> "LaurentMatrix":
        """Inverse via the adjugate; the determinant is the only inversion.

        The cofactors are expanded along the first row, recursively, on the
        product kernel's integer forms: each minor is one
        :func:`series._accumulate` over its signed products, settled back
        into a form (:func:`series._settle`), so after cancellation it has
        the valuation and the precision that the series operations give it.
        The determinant ``d`` is row 0 of ``self @ adj(self)``, and each
        entry of ``adj(self) * d**-1`` is built once.  An exact matrix
        inverts only when its determinant is a monomial; otherwise truncate
        it first (a truncated determinant inverts to its own precision).
        """
        if self.size == 1:
            return LaurentMatrix(self.tower, [[self.entries[0][0].inverse()]],
                                 self.ram)
        tower, ram = self.tower, self.ram
        size = tower.sizes[-1]
        m = _forms(self.entries, ram, size)

        def det(grid: list):
            if len(grid) == 1:
                return grid[0][0]
            return _settle(tower, *_accumulate(size, [
                (_negated(f) if j % 2 else f, det([row[:j] + row[j + 1:] for row in grid[1:]]))
                for j, f in enumerate(grid[0])]))

        adj = [[det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
                for j in range(len(m))] for i in range(len(m))]
        adj = [[_negated(f) if (i + j) % 2 else f for j, f in enumerate(row)]
               for i, row in enumerate(adj)]
        d = _materialise(tower, ram, *_accumulate(size, zip(m[0], [r[0] for r in adj])))
        d_inv = _integral(d.inverse(), ram, size)
        return LaurentMatrix(tower, [[_materialise(tower, ram, *_accumulate(size, [(f, d_inv)]))
                                      for f in row] for row in adj], ram)

    def __repr__(self) -> str:
        rows = [", ".join(repr(s) for s in r) for r in self.entries]
        return "LaurentMatrix[\n  " + "\n  ".join(rows) + "\n]"


# Kept because the benchmark tracer wraps it by name and the _old_sibuya test oracle uses it.
def matrix_exp(xi: LaurentMatrix) -> LaurentMatrix:
    """``exp(xi)`` for ``valuation(xi) >= 1``.

    A truncated argument with precision ``p`` yields a result with precision
    ``p``: powers count as long as their valuation is below ``p``, and later
    terms ``xi**k / k!`` land at or past the window, where the result is
    unknown.  So ``matrix_exp(xi.truncate(p))`` chooses the window.  An exact
    argument (``prec`` is ``INF``) must be nilpotent; a nonzero ``xi**k``
    with ``k`` past the size proves that it is not.
    """
    if xi.valuation < 1:
        raise DomainViolation("matrix exponential requires valuation >= 1")
    p = xi.prec
    result = LaurentMatrix.identity(xi.tower, xi.size, xi.ram).truncate(p)
    power = xi
    k = 1
    while power.valuation < p:
        if p is INF and k > xi.size:
            raise NotNilpotent("exponential of an exact non-nilpotent argument does "
                               "not terminate; truncate it first")
        result = result + power * Fraction(1, math.factorial(k))
        k += 1
        power = power * xi
    return result
