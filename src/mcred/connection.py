"""Meromorphic connections on the formal punctured disk.

A connection is ``d + G(u) du`` where ``G`` is a square matrix of truncated
Laurent series in the local variable ``u``, with ``u**ram = t``.  The stored
matrix is always the ``du``-coefficient *in the current variable*; pulling
back along ``u = w**b`` (:meth:`Connection.ramify`) rewrites it accordingly,
including the Jacobian factor ``b * w**(b-1)``.

The gauge action used throughout is

    gauge_g(G) = g G g^{-1} - (dg/du) g^{-1},

i.e. ``g`` carries old coordinates to new ones.  It composes covariantly:
``gauge_{gh} = gauge_g . gauge_h``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .errors import DomainViolation, NotBlockDiagonal, PrecisionExhausted
from .field import FieldTower, common_tower
from .matrices import LaurentMatrix
from .series import (INF, LaurentSeries, _derived, _form_product, _forms, _from_form, _negated,
                     _sum_of_products)


class Connection:
    """``d + G(u) du`` with ``G`` an n-by-n truncated Laurent series matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: LaurentMatrix):
        if matrix.nrows != matrix.ncols:
            raise DomainViolation("connection matrices must be square")
        self.matrix = matrix

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_coeff_map(cls, tower: FieldTower, coeff_map, size: int,
                       prec=INF, ram: int = 1) -> "Connection":
        return cls(LaurentMatrix.from_coeff_map(tower, coeff_map, size, prec, ram))

    # -- inspection -------------------------------------------------------------

    @property
    def tower(self) -> FieldTower:
        return self.matrix.tower

    @property
    def ram(self) -> int:
        return self.matrix.ram

    @property
    def size(self) -> int:
        return self.matrix.size

    @property
    def prec(self):
        return self.matrix.prec

    @property
    def valuation(self):
        return self.matrix.valuation

    @property
    def pole_order(self):
        """``r`` with ``G = G_{-r} u^{-r} + ...`` (may be <= 0 when regular)."""
        v = self.valuation
        return -v if v is not INF else -INF

    def coeff(self, exp: int) -> list:
        """Scalar matrix of ``u**exp`` coefficients."""
        return self.matrix.coeff_matrix(exp)

    def leading(self) -> list:
        """The scalar matrix at the pole order (the lowest known exponent).
        A truncated window with no known nonzero coefficient raises
        :class:`PrecisionExhausted` (``needed=0``: callers ask at a pole of
        order >= 2, where precision 0 moves the failure on); the exact zero
        raises :class:`DomainViolation`."""
        v = self.valuation
        if v is INF:
            raise DomainViolation("no nonzero coefficient in the known window")
        if v == self.prec:
            raise PrecisionExhausted("every known coefficient is zero but the window stops at "
                                     f"exponent {v}, which still allows a pole of order {-v}",
                                     needed=0)
        return self.coeff(v)

    def residue(self) -> list:
        """``du``-coefficient at ``u**-1`` (divide by ``ram`` for dt/t units)."""
        return self.coeff(-1)

    # -- housekeeping -------------------------------------------------------------

    def truncate(self, prec) -> "Connection":
        return Connection(self.matrix.truncate(prec))

    def __eq__(self, other) -> bool:
        """Same ramification and the same matrix (a matrix at another
        ramification is the ``du``-coefficient in another variable)."""
        if not isinstance(other, Connection):
            return NotImplemented
        return self.ram == other.ram and self.matrix == other.matrix

    __hash__ = None  # type: ignore[assignment]

    def coincides_with(self, other: "Connection") -> bool:
        """Same ramification and agreement on the common known window."""
        return self.ram == other.ram and self.matrix.coincides_with(other.matrix)

    def __repr__(self) -> str:
        return f"Connection(ram={self.ram}, size={self.size}, G={self.matrix!r})"

    # -- the three reduction moves ---------------------------------------------

    def gauge(self, g: LaurentMatrix) -> "Connection":
        """Apply ``gauge_g``: ``g G g^{-1} - (dg/du) g^{-1}``.

        ``g^{-1}`` is :meth:`LaurentMatrix.inverse`: elimination for an exact
        constant ``g``, the cofactor expansion otherwise.  An exact ``g``
        that is not constant must have a monomial determinant, since any
        other exact inverse does not terminate; truncate such a gauge first.
        The result is over the deeper of the two towers, also for the
        identity.

        The product ``g G`` is computed on the product kernel's integer forms
        (:func:`series._integral`), and each entry of the result is one
        :func:`series._sum_of_products` over the pairs ``(g G)_al
        (g^{-1})_lb`` and ``-(dg/du)_al (g^{-1})_lb`` (``dg/du`` read off the
        forms of ``g``), built into a series once.  Its precision
        is the minimum over those pairs, which is what the difference of the
        two products would have.
        """
        if g.nrows != g.ncols or g.nrows != self.size:
            raise DomainViolation("gauge shape does not match the connection")
        if g.ram != self.ram:
            raise DomainViolation(f"gauge has ramification {g.ram}, not {self.ram}")
        tower, ram = common_tower(g.tower, self.tower), self.ram
        size = tower.sizes[-1]
        g_forms = _forms(g.entries, ram, size)
        cols = list(zip(*_forms(g.inverse().entries, ram, size)))
        g_g = _form_product(tower, g_forms, _forms(self.matrix.entries, ram, size))
        minus_dg = [[_negated(_derived(f, size)) for f in row] for row in g_forms]
        return Connection(LaurentMatrix(tower, [
            [_from_form(tower, ram, _sum_of_products(tower, [*zip(a, col), *zip(b, col)]))
             for col in cols] for a, b in zip(g_g, minus_dg)], ram))

    def ramify(self, b: int) -> "Connection":
        """Pull back along ``u = w**b`` (so ``w**(b*ram) = t``).

        Exponents map ``i -> b*i + b - 1`` and the matrix is scaled by ``b``;
        a pole of order ``r`` becomes one of order ``b*(r-1) + 1``.
        """
        if not isinstance(b, int) or b < 1:
            raise DomainViolation("ramification degree must be a positive int")
        if b == 1:
            return self
        m = self.matrix.lift_ramification(b).shift(b - 1) * b
        return Connection(m)

    def scalar_twist(self, phi) -> "Connection":
        """Add ``phi * I`` to the matrix (twist by the rank-one ``d + phi du``)."""
        if not isinstance(phi, LaurentSeries):
            raise DomainViolation("scalar twists take a Laurent series")
        if phi.ram != self.ram:
            raise DomainViolation(
                f"scalar twist has ramification {phi.ram}, not {self.ram}")
        twist = LaurentMatrix.diagonal(self.tower, [phi] * self.size, phi.ram)
        return Connection(self.matrix + twist)

    # -- block structure -----------------------------------------------------------

    def block_split(self, sizes: Sequence[int]) -> list:
        """Split a block-diagonal connection into its diagonal blocks.

        Off-diagonal blocks must vanish below :attr:`prec`, the window every
        entry knows.  Entries known past it may carry a nonzero off-diagonal
        coefficient there, as after a shear; the connection is then cut at
        the first exponent where one is nonzero before it splits.
        """
        if sum(sizes) != self.size or any(s < 1 for s in sizes):
            raise DomainViolation("block sizes must be positive and sum to n")
        block = [k for k, s in enumerate(sizes) for _ in range(s)]
        prec, cut = self.prec, INF
        for a, row in enumerate(self.matrix.entries):
            for b, x in enumerate(row):
                if block[a] != block[b] and not x.is_zero_to_precision():
                    if x.valuation < prec:
                        raise NotBlockDiagonal(f"entry ({a}, {b}) is nonzero across blocks")
                    cut = min(cut, x.valuation)
        whole = self.matrix.truncate(cut)
        return [Connection(whole.submatrix(range(end - s, end), range(end - s, end)))
                for s, end in zip(sizes, accumulate(sizes))]

    # -- the covariant derivative ----------------------------------------------------

    def apply_nabla(self, v: LaurentMatrix) -> LaurentMatrix:
        """``du``-coefficient of the covariant derivative of a column (or a
        matrix of columns): ``dv/du + G v``."""
        if v.nrows != self.size:
            raise DomainViolation("section has the wrong number of rows")
        if v.ram != self.ram:
            raise DomainViolation(f"section has ramification {v.ram}, not {self.ram}")
        return v.derivative() + self.matrix * v
