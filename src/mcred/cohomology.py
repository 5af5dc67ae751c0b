"""De Rham cohomology of a connection by finite lattice windows.

``∇ = d/du + Γ`` maps the lattice slice spanned by ``u^k e_i`` for
``k in [N_min, N_max)`` to the slice of form coefficients at exponents
``[N_min - m, N_max - m)``, where ``m = max(1, pole order)``.  That finite
square matrix has equal kernel and cokernel dimensions, and as the window
grows both stabilize at the kernel and cokernel of ``∇`` on Laurent series.
Which window is *provably* big enough depends on the shape of the
connection:

* pole order <= 1: any window strictly containing the integer spectrum
  ``{N : det(residue + N·I) = 0}`` works — outside those exponents the
  graded pieces of the map are isomorphisms;
* pole order >= 2 with invertible leading coefficient: every graded piece
  is an isomorphism, so the one-slot window ``[0, 1)`` already certifies
  acyclicity;
* otherwise :func:`derham_dims` falls back to doubling windows until the
  dimensions hold still twice in a row, tagging the result accordingly.

The fallback does *not* double the square compression: chopping the form
side at the top of the window manufactures kernel out of the nilpotent part
of the leading term (up to ``n·(r-1)`` fake dimensions that never go away),
which would break the ``h0 <= n`` bound.  Instead it counts flat sections
supported in the window — no chopping, every determinable coefficient row
of ``∇v`` must vanish — and gets ``h1`` the same way from the dual
connection ``d - Γᵗ du``, which the residue pairing matches with the
cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .connection import Connection
from .errors import (
    DomainViolation,
    EngineError,
    NotRegularSingular,
    PrecisionExhausted,
    Unstabilized,
)
from .field import common_context
from .leading import rational_roots
from .series import INF, LaurentSeries

#: Give up on window doubling after this many doublings of the initial window.
DOUBLING_CAP = 6


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeWindow:
    """Source slice ``u^k`` for ``n_min <= k < n_max`` (the form side is the
    same slice shifted down by ``max(1, pole order)``)."""

    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min >= self.n_max:
            raise DomainViolation("empty lattice window")

    @property
    def width(self) -> int:
        return self.n_max - self.n_min


@dataclass
class DeRhamDims:
    h0: int
    h1: int
    window: LatticeWindow
    stabilized: bool
    certificate: str  # "spectrum-derived" | "window-doubling" | "window"

    @property
    def chi(self) -> int:
        return self.h0 - self.h1


@dataclass
class RsSpectrum:
    """Integer exponents where the graded pieces of a regular-singular
    connection degenerate: ``entries`` is an ascending list of pairs
    ``(N, dim ker(residue + N·I))``."""

    entries: list

    def indices(self) -> list:
        return [n for n, _ in self.entries]

    def total(self) -> int:
        return sum(mult for _, mult in self.entries)


# ---------------------------------------------------------------------------
# the finite complex
# ---------------------------------------------------------------------------


def _pole_shift(c: Connection) -> int:
    r = c.pole_order
    return int(r) if r != -INF and r > 1 else 1


def _nabla_rows(c: Connection, j: int, k_min: int, width: int) -> list:
    """The n rows of ``∇`` that land on ``u**j du``, restricted to sections
    with exponents in ``[k_min, k_min + width)``: column ``kx*n + b`` holds
    ``G_{j-k}[a][b]``, plus ``k`` on the diagonal where ``j == k - 1``."""
    n = c.size
    zero = c.tower.zero()
    block = [[zero] * (n * width) for _ in range(n)]
    for kx in range(width):
        k = k_min + kx
        grid = c.coeff(j - k)
        for a in range(n):
            for b in range(n):
                x = grid[a][b]
                if a == b and j == k - 1:
                    x = x + k
                block[a][kx * n + b] = x
    return block


def truncated_complex_dims(c: Connection, w: LatticeWindow) -> DeRhamDims:
    """Kernel and cokernel dimensions of ``∇`` restricted to ``w``.

    Unstabilized raw numbers: they agree with the true dimensions only once
    the window is large enough (see :func:`derham_dims`).
    """
    m = _pole_shift(c)
    need = w.width - m
    if c.prec is not INF and c.prec < need:
        raise PrecisionExhausted(
            f"window {w.n_min, w.n_max} needs coefficients up to exponent "
            f"{need} but the connection is only known below {c.prec}",
            needed=need,
        )
    dim = c.size * w.width
    mat = [row for j in range(w.n_min - m, w.n_max - m)
           for row in _nabla_rows(c, j, w.n_min, w.width)]
    rank = linalg.rank(mat)
    return DeRhamDims(dim - rank, dim - rank, w, False, "window")


# ---------------------------------------------------------------------------
# regular-singular spectrum
# ---------------------------------------------------------------------------


def _shifted_by(residue, n_shift: int):
    tower = common_context(residue)[0]
    eye = linalg.identity(tower, len(residue))
    return linalg.mat_add(residue, linalg.mat_scale(n_shift, eye))


def rs_spectrum(residue) -> RsSpectrum:
    """Integer roots ``N`` of ``det(residue + N·I)`` with kernel dimensions."""
    n = len(residue)
    entries = []
    for root in rational_roots(linalg.charpoly(linalg.mat_neg(residue))):
        if root.denominator != 1:
            continue
        entries.append((int(root), n - linalg.rank(_shifted_by(residue, int(root)))))
    entries.sort()
    return RsSpectrum(entries)


def _spectrum_window(spectrum: RsSpectrum) -> LatticeWindow:
    pts = spectrum.indices() + [0]
    return LatticeWindow(min(pts) - 1, max(pts) + 2)


# ---------------------------------------------------------------------------
# stabilized dimensions
# ---------------------------------------------------------------------------


def flat_section_dim(c: Connection, w: LatticeWindow) -> int:
    """Dimension of the space of flat-section germs visible in ``w``.

    Two traps frame the computation.  Chopping the form side at the top of
    the window (as the square compression of :func:`truncated_complex_dims`
    must) manufactures kernel out of a nilpotent leading term; demanding
    ``∇v = 0`` on *every* row instead only counts polynomial sections and
    misses the power-series ones.  So this takes the sandwich between the
    two: solve ``∇v ≡ 0`` on an extended window ``[n_min, n_max + ext)``
    with rows enforced below the top relaxation ``n_max + ext - r``, then
    count the restrictions of the solutions to the ``w``-coordinates.
    Truncations of genuine flat sections always pass (their defect sits
    above the relaxation), while top-boundary fakes lose their support under
    the restriction; once the extension clears the connection's critical
    exponents, the count is exactly the number of independent flat sections
    with a coefficient inside ``w``.
    """
    r = c.pole_order
    r_eff = int(r) if r != -INF and r > 1 else 1
    ext = w.width // 2 + r_eff
    top = w.n_max + ext
    need = top - r_eff - w.n_min
    if c.prec is not INF and c.prec < need:
        raise PrecisionExhausted(
            f"certifying flat sections on window {w.n_min, w.n_max} needs "
            f"coefficients up to exponent {need} but the connection is "
            f"only known below {c.prec}",
            needed=need,
        )
    lo = min([w.n_min - 1] + [w.n_min + e for e in c.matrix.support()])
    rows = [row for j in range(lo, top - r_eff)
            for row in _nabla_rows(c, j, w.n_min, top - w.n_min)]
    basis = linalg.nullspace(rows)
    if not basis:
        return 0
    visible = [vec[: c.size * w.width] for vec in basis]
    return linalg.rank(visible)


def dual_connection(c: Connection) -> Connection:
    """``d - Γᵗ du``: flat sections of the dual pair perfectly with the
    cokernel of ``∇`` through the residue pairing ``(v du, w) -> res(wᵗv)``."""
    return Connection(c.matrix.transpose() * -1)


def doubling_dims(c: Connection) -> DeRhamDims:
    """``(h0, h1)`` by doubling symmetric windows of flat-section counts
    (``h1`` through :func:`dual_connection`) until they repeat twice."""
    r = c.pole_order
    w = (int(r) if r != -INF and r > 1 else 1) + 1
    dual = dual_connection(c)
    prev = None
    streak = 0
    for _ in range(DOUBLING_CAP + 1):
        window = LatticeWindow(-w, w)
        pair = (flat_section_dim(c, window), flat_section_dim(dual, window))
        streak = streak + 1 if pair == prev else 0
        if streak >= 2:
            return DeRhamDims(pair[0], pair[1], window, True, "window-doubling")
        prev = pair
        w *= 2
    raise Unstabilized(
        f"dimensions kept moving after {DOUBLING_CAP} window doublings"
    )


def derham_dims(c: Connection) -> DeRhamDims:
    """Stabilized ``(h0, h1)`` with the window that certifies them.

    Regular-singular and invertible-lead connections get a window a theorem
    vouches for (``certificate="spectrum-derived"``); anything else goes
    through :func:`doubling_dims` (``certificate="window-doubling"``), which
    raises :class:`Unstabilized` after ``DOUBLING_CAP`` doublings.
    """
    r = c.pole_order
    if r <= 1:
        window = _spectrum_window(rs_spectrum(c.residue()))
        dims = truncated_complex_dims(c, window)
        return DeRhamDims(dims.h0, dims.h1, window, True, "spectrum-derived")
    lead = c.leading()
    n = c.size
    if linalg.rank(lead) == n:
        window = LatticeWindow(0, 1)
        dims = truncated_complex_dims(c, window)
        if (dims.h0, dims.h1) != (0, 0):  # pragma: no cover - soundness check
            raise EngineError("invertible leading term must be acyclic")
        return DeRhamDims(0, 0, window, True, "spectrum-derived")
    return doubling_dims(c)


def euler_bound_check(c: Connection, dims: DeRhamDims) -> bool:
    """``h0 <= n`` and ``|chi| <= (2r + 1) n`` (with ``r`` floored at 1)."""
    n = c.size
    r = c.pole_order
    r_eff = int(r) if r != -INF and r > 1 else 1
    return dims.h0 <= n and abs(dims.chi) <= (2 * r_eff + 1) * n


# ---------------------------------------------------------------------------
# explicit generators of H^1 in the regular-singular case
# ---------------------------------------------------------------------------


def h1_generators(c: Connection) -> list:
    """Monomial form-vectors spanning the cokernel of a regular-singular
    connection: for each spectrum index ``N``, standard vectors completing
    the column space of ``residue + N·I`` (in elimination pivot order),
    placed at ``u^(N-1) du``.  At most ``n`` vectors come back.
    """
    if c.pole_order > 1:
        raise NotRegularSingular(
            "explicit cokernel generators need a pole of order <= 1"
        )
    residue = c.residue()
    n = c.size
    tower = c.tower
    gens = []
    for N, mult in rs_spectrum(residue).entries:
        shifted = _shifted_by(residue, N)
        aug = [shifted[a][:] + [tower.rational(int(a == b)) for b in range(n)]
               for a in range(n)]
        _, pivots = linalg.rref(aug)
        chosen = [p - n for p in pivots if p >= n]
        if len(chosen) != mult:  # pragma: no cover - soundness check
            raise EngineError("cokernel completion lost a generator")
        for b in chosen:
            gens.append([
                LaurentSeries.monomial(tower, int(a == b), N - 1, c.ram)
                for a in range(n)
            ])
    return gens


# ---------------------------------------------------------------------------
# compatibility of cohomology with ramified pullback
# ---------------------------------------------------------------------------


def ramified_decomposition_check(c: Connection, d: int) -> bool:
    """Pullback along ``u -> u^d`` against the sum of fractional twists:
    ``dims(ramify(c, d)) == Σ_{i<d} dims(c twisted by (i/d) du/u)``."""
    if d < 1:
        raise DomainViolation("ramification degree must be >= 1")
    left = derham_dims(c.ramify(d))
    h0 = h1 = 0
    for i in range(d):
        phi = LaurentSeries.monomial(
            c.tower, Fraction(i, d) * c.ram, -1, c.ram
        )
        dims = derham_dims(c.scalar_twist(phi))
        h0 += dims.h0
        h1 += dims.h1
    return (left.h0, left.h1) == (h0, h1)
