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
  dimensions hold still twice in a row, tagging the result accordingly,
  and gives up on systems wider than ``MAX_LATTICE_COLUMNS``.

There is one band system with one count, :func:`_window_kernel`: the
restrictions to the window of the sections on ``[N_min, top)`` whose ``∇``
vanishes on the rows ``[N_min - m, top - m)``.  The square compression of
:func:`truncated_complex_dims` is that count with no extension
(``top = N_max``).  Window doubling extends the window instead
(:func:`flat_section_dim`), since chopping the form side at its top
manufactures up to ``n·(r-1)`` fake dimensions out of a nilpotent lead,
breaking ``h0 <= n``; it gets ``h1`` from the dual connection
``d - Γᵗ du``, which the residue pairing matches with the cokernel.

Every count is a rank, and every system is a band matrix: a row of ``∇``
meets only the few blocks its coefficients reach.  So :func:`_lattice`
builds each row as the run of columns it occupies, and the runs go whole,
in reverse column order, to :func:`linalg.pivot_columns`; at level 0 they
are integer bands, which :func:`linalg.integer_pivot_columns` eliminates
by leading column without touching a column outside a run.  Reversed, each
row leads with the column where the lead, or the ``k`` diagonal, lands, so
every row is pivoted on the lead, not on its highest known coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .connection import Connection
from .errors import (
    DomainViolation,
    EngineError,
    NotRegularSingular,
    ParseError,
    PrecisionExhausted,
    Unstabilized,
)
from .field import common_context
from .leading import rational_roots
from .series import INF, LaurentSeries

MAX_LATTICE_COLUMNS = 512
"""Widest lattice system (rank times window width) that window doubling
builds and ``derham --window`` accepts.  Tests and benchmark peak at 222
columns; doubling on a rank-2 nilpotent lead ``[[0, 1], [0, 0]] u**-r`` plus
``[[0, 0], [1, 0]]`` reaches 440 at r = 16.  Unbounded, it took 0.01 / 0.03
/ 0.07 / 0.9 s at r = 16 / 32 / 64 / 256 (the last on 6,680 columns); a
512-column window took 0.02 s on the seed-1 rank-8, pole-2 nilpotent-lead
file (0.04 s on 1,024 columns) and under 0.01 s on a rank-8 zero file.
In-process ``derham_dims`` and ``truncated_complex_dims``, 2-core x86-64
VM, Python 3.11.7.  The bound stays, so which inputs get an answer does
not change."""

MAX_CERTIFIED_COLUMNS = 4096
"""Widest lattice system (rank times window width) that
:func:`certified_dims` builds for a regular-singular connection, whose
window spans the residue's integer spectrum; a wider one is refused with
``ParseError`` (exit 4) before anything is built.  On residue ``[[2, 1],
[0, -G]]`` plus a fixed random ``A_0``, ``derham_dims`` took 0.08 / 0.50 /
1.5 / 4.3 s at G = 1,000 / 2,000 / 3,000 / 4,000 (2,010 / 4,010 / 6,010 /
8,010 columns); in-process, 2-core x86-64 VM, Python 3.11.7."""


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
    certificate: str  # "spectrum-derived" | "window-doubling" | "window"
    # the residue spectrum a regular-singular certificate came from, for
    # h1_generators; never compared, printed or encoded
    spectrum: RsSpectrum | None = field(default=None, compare=False, repr=False)

    @property
    def stabilized(self) -> bool:
        """Settled dimensions: everything but a raw single-window count."""
        return self.certificate != "window"

    @property
    def chi(self) -> int:
        return self.h0 - self.h1


@dataclass
class RsSpectrum:
    """Integer exponents where the graded pieces of a regular-singular
    connection degenerate: ``entries`` is an ascending list of pairs
    ``(N, dim ker(residue + N·I))``, and ``completions[i]`` lists, for the
    ``i``-th entry, the standard basis vectors (by index, in elimination pivot
    order) that complete the column space of ``residue + N·I``: one per
    kernel dimension, the monomials :func:`h1_generators` places at
    ``u^(N-1) du``."""

    entries: list
    completions: list


# ---------------------------------------------------------------------------
# the finite complex
# ---------------------------------------------------------------------------


def _pole_shift(c: Connection) -> int:
    r = c.pole_order
    return int(r) if r != -INF and r > 1 else 1


def _lattice(c: Connection, rows: range, k_min: int, width: int, what: str) -> list:
    """The rows of ``∇`` that land on ``u**j du`` for ``j`` in ``rows``, on
    sections with exponents in ``[k_min, k_min + width)``, as band rows: row
    ``jx*n + a`` is ``(lo, values)``, the run of its dense row from column
    ``lo`` on that holds every column where a coefficient or the ``k``
    diagonal lands.  The dense row's column ``kx*n + b`` holds
    ``G_{j-k}[a][b]``, plus ``k`` where ``j == k - 1``; outside the run it is
    zero.  ``what`` names the window a short precision blames.

    Block row ``a`` lays its coefficients and its diagonal out once, as a
    template from the first column where one lands to the last.  A row the
    window leaves whole is a copy of the template plus ``k`` times its
    denominator on the diagonal; a row an edge cuts is the template's part
    inside the window, cleared of its own denominators.

    When every coefficient of ``c`` is rational (in any tower), the values
    are Python ints, each row cleared of the denominators of the
    coefficients that land in it, read from the entries' integer forms
    (:func:`series._integral`) with no element built: the bands
    :func:`linalg.integer_pivot_columns` eliminates.  Otherwise they are
    ``FieldElement``s over one shared zero, which
    :func:`linalg.pivot_columns` expands to dense rows.
    """
    need = rows.stop - k_min
    if c.prec is not INF and c.prec < need:
        raise PrecisionExhausted(f"{what} needs coefficients up to exponent {need} but the "
                                 f"connection is only known below {c.prec}", needed=need)
    n, cols, size = c.size, c.size * width, c.tower.sizes[-1]
    rational = all(k % size == 0 for entries in c.matrix.entries for s in entries
                   if s.form for k, _ in s.form[3])
    zero = 0 if rational else c.tower.zero()
    # block row a's template runs over the positions (top - e)*n + b of its
    # coefficients and (top + 1)*n + a of the diagonal, from the first to the
    # last; row j puts position t at column (j - k_min - top)*n + t
    blocks = []
    for a, entries in enumerate(c.matrix.entries):
        if rational:
            den = math.lcm(*[s.form[2] for s in entries if s.form])
            coeffs = [(k // size, b, v * (den // s.form[2])) for b, s in enumerate(entries)
                      if s.form for k, v in s.form[3]]
        else:
            den = 1
            coeffs = [(e, b, x) for b, s in enumerate(entries) for e, x in s.coeffs.items()]
        top = max([-1] + [e for e, _, _ in coeffs])
        spots = [((top - e) * n + b, x) for e, b, x in coeffs]
        diag = (top + 1) * n + a
        places = [diag] + [t for t, _ in spots]
        t_lo = min(places)
        template = [zero] * (max(places) + 1 - t_lo)
        dens = [1] * len(template)  # the denominator at each position
        for t, x in spots:
            template[t - t_lo] = x
            if rational:
                dens[t - t_lo] = den // math.gcd(x, den)
        blocks.append((t_lo - (k_min + top) * n, template, diag - t_lo, dens, den))
    bands = []
    for j in rows:
        for base, template, diag, dens, den in blocks:
            lo = j * n + base
            hi = lo + len(template)
            if lo >= 0 and hi <= cols:
                values = template[:]
                values[diag] += (j + 1) * den
                bands.append((lo, values))
                continue
            # an edge cuts the row: the part inside the window, cleared of
            # the denominators that land there
            start, stop = min(max(lo, 0), cols), max(min(hi, cols), 0)
            values = template[start - lo:stop - lo]
            row_den = math.lcm(*dens[start - lo:stop - lo]) if den != 1 else 1
            if row_den != den:
                values = [v // (den // row_den) for v in values]
            if start <= lo + diag < stop:
                values[lo + diag - start] += (j + 1) * row_den
            bands.append((start, values))
    return bands


def _window_kernel(c: Connection, w: LatticeWindow, top: int, what: str) -> int:
    """The dimension of the restrictions to ``w`` of the sections on
    ``[w.n_min, top)`` whose ``∇`` vanishes on the rows ``[w.n_min - m,
    top - m)``.  Split that :func:`_lattice` system as ``A = [A_V | A_H]``,
    ``V`` the ``n·w.width`` coordinates in ``w`` and ``H`` the extension
    ``[w.n_max, top)``: the restrictions span ``|V| − (rank A − rank A_H)``
    dimensions.  The bands reversed (``(lo, values)`` becomes ``(cols − lo
    − len(values), values[::-1])``) put ``H`` first, so the pivots that land
    in ``V`` number ``rank A − rank A_H``.  With ``top = w.n_max`` there is
    no ``H``, and the count is the kernel of the square compression.
    """
    m = _pole_shift(c)
    system = _lattice(c, range(w.n_min - m, top - m), w.n_min, top - w.n_min, what)
    cols = c.size * (top - w.n_min)
    visible = c.size * w.width
    pivots = linalg.pivot_columns([(cols - lo - len(v), v[::-1]) for lo, v in system])
    return visible - sum(1 for p in pivots if p >= cols - visible)


def truncated_complex_dims(c: Connection, w: LatticeWindow) -> DeRhamDims:
    """Kernel and cokernel dimensions of ``∇`` restricted to ``w``: both
    are the :func:`_window_kernel` with no extension, as the system is square.

    Unstabilized raw numbers: they agree with the true dimensions only once
    the window is large enough (see :func:`derham_dims`).
    """
    h = _window_kernel(c, w, w.n_max, f"window {w.n_min, w.n_max}")
    return DeRhamDims(h, h, w, "window")


# ---------------------------------------------------------------------------
# regular-singular spectrum
# ---------------------------------------------------------------------------


def rs_spectrum(residue) -> RsSpectrum:
    """Integer roots ``N`` of ``det(residue + N·I)`` with kernel dimensions
    and cokernel completions, from one :func:`linalg.pivot_columns` of
    ``[residue + N·I | I]`` per root: the pivots past the first ``n`` columns
    are the completing standard vectors, and there are ``n - rank`` of them,
    the kernel dimension."""
    n = len(residue)
    tower = common_context(residue)
    eye = [[tower.rational(int(a == b)) for b in range(n)] for a in range(n)]
    roots = [int(N) for N in rational_roots(linalg.charpoly(linalg.mat_neg(residue)))
             if N.denominator == 1]  # ascending
    completions = []
    for N in roots:
        pivots = linalg.pivot_columns([(0, [x + N if a == b else x for b, x in enumerate(row)]
                                       + eye[a]) for a, row in enumerate(residue)])
        completions.append([p - n for p in pivots if p >= n])
    return RsSpectrum([(N, len(c)) for N, c in zip(roots, completions)], completions)


def _spectrum_window(spectrum: RsSpectrum) -> LatticeWindow:
    pts = [n for n, _ in spectrum.entries] + [0]
    return LatticeWindow(min(pts) - 1, max(pts) + 2)


# ---------------------------------------------------------------------------
# stabilized dimensions
# ---------------------------------------------------------------------------


def _flat_top(c: Connection, w: LatticeWindow) -> int:
    """The top of the extended window :func:`flat_section_dim` solves on."""
    return w.n_max + w.width // 2 + _pole_shift(c)


def flat_section_dim(c: Connection, w: LatticeWindow) -> int:
    """Dimension of the space of flat-section germs visible in ``w``.

    Two traps frame the computation.  Chopping the form side at the top of
    the window (as the square compression of :func:`truncated_complex_dims`
    must) manufactures kernel out of a nilpotent leading term; demanding
    ``∇v = 0`` on *every* row instead only counts polynomial sections and
    misses the power-series ones.  So this takes the sandwich between the
    two: the :func:`_window_kernel` of ``w`` extended to ``top =``
    :func:`_flat_top`, whose rows stop at the top relaxation ``top - m``.
    Truncations of genuine flat sections always pass (their defect sits
    above the relaxation), while top-boundary fakes lose their support under
    the restriction to ``w``; once the extension clears the connection's
    critical exponents, the count is exactly the number of independent flat
    sections with a coefficient inside ``w``.
    """
    return _window_kernel(c, w, _flat_top(c, w),
                          f"certifying flat sections on window {w.n_min, w.n_max}")


def dual_connection(c: Connection) -> Connection:
    """``d - Γᵗ du``: flat sections of the dual pair perfectly with the
    cokernel of ``∇`` through the residue pairing ``(v du, w) -> res(wᵗv)``."""
    return Connection(-c.matrix.transpose())


def doubling_dims(c: Connection) -> DeRhamDims:
    """``(h0, h1)`` by doubling symmetric windows of flat-section counts
    (``h1`` through :func:`dual_connection`) until they repeat twice, or
    :class:`Unstabilized` once the next window's system would be wider than
    ``MAX_LATTICE_COLUMNS``; the width grows with every doubling, so the
    loop ends."""
    w = _pole_shift(c) + 1
    dual = dual_connection(c)
    prev = None
    streak = 0
    while True:
        window = LatticeWindow(-w, w)
        if c.size * (_flat_top(c, window) - window.n_min) > MAX_LATTICE_COLUMNS:
            raise Unstabilized(f"dimensions did not settle on lattice systems of at most "
                               f"{MAX_LATTICE_COLUMNS} columns")
        pair = (flat_section_dim(c, window), flat_section_dim(dual, window))
        streak = streak + 1 if pair == prev else 0
        if streak >= 2:
            return DeRhamDims(pair[0], pair[1], window, "window-doubling")
        prev = pair
        w *= 2


def certified_dims(c: Connection) -> DeRhamDims | None:
    """``(h0, h1)`` on a window a theorem vouches for
    (``certificate="spectrum-derived"``) when ``c`` is regular singular or
    has an invertible lead, else ``None``.  A regular-singular result keeps
    the residue's :func:`rs_spectrum` as its ``spectrum``; a window wider
    than ``MAX_CERTIFIED_COLUMNS`` raises ``ParseError``."""
    if c.pole_order <= 1:
        spectrum = rs_spectrum(c.residue())
        window = _spectrum_window(spectrum)
        if c.size * window.width > MAX_CERTIFIED_COLUMNS:
            raise ParseError(f"the integer spectrum of the residue needs window "
                             f"{window.n_min, window.n_max}, more than "
                             f"{MAX_CERTIFIED_COLUMNS} lattice columns on rank {c.size}")
        dims = truncated_complex_dims(c, window)
        return DeRhamDims(dims.h0, dims.h1, window, "spectrum-derived", spectrum)
    if linalg.rank(c.leading()) < c.size:
        return None
    window = LatticeWindow(0, 1)
    dims = truncated_complex_dims(c, window)
    if (dims.h0, dims.h1) != (0, 0):  # pragma: no cover - soundness check
        raise EngineError("invertible leading term must be acyclic")
    return DeRhamDims(0, 0, window, "spectrum-derived")


def derham_dims(c: Connection) -> DeRhamDims:
    """Stabilized ``(h0, h1)`` with the window that certifies them:
    :func:`certified_dims` where it applies, else :func:`doubling_dims`
    (``certificate="window-doubling"``), which raises :class:`Unstabilized`
    rather than build a system wider than ``MAX_LATTICE_COLUMNS``.
    """
    return certified_dims(c) or doubling_dims(c)


def euler_bound_check(c: Connection, dims: DeRhamDims) -> bool:
    """Index 0 (``h0 == h1``, as for ``d/du`` on ``K((u))^n``) and
    ``0 <= h0 <= n``."""
    return dims.h0 == dims.h1 and 0 <= dims.h0 <= c.size


# ---------------------------------------------------------------------------
# explicit generators of H^1 in the regular-singular case
# ---------------------------------------------------------------------------


def h1_generators(c: Connection, spectrum: RsSpectrum | None = None) -> list:
    """Monomial form-vectors spanning the cokernel of a regular-singular
    connection: for each spectrum index ``N``, the standard vectors
    :func:`rs_spectrum` chose to complete the column space of
    ``residue + N·I``, placed at ``u^(N-1) du``.  At most ``n`` vectors come
    back.  ``spectrum`` is the residue's spectrum when the caller already
    has it (the ``spectrum`` of :func:`certified_dims`), so nothing is
    eliminated again; without it the spectrum is computed here.
    """
    if c.pole_order > 1:
        raise NotRegularSingular(
            "explicit cokernel generators need a pole of order <= 1"
        )
    if spectrum is None:
        spectrum = rs_spectrum(c.residue())
    return [[LaurentSeries.monomial(c.tower, int(a == b), N - 1, c.ram) for a in range(c.size)]
            for (N, _), chosen in zip(spectrum.entries, spectrum.completions) for b in chosen]


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
