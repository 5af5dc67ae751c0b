"""Leading-term analysis for connections with a pole of order >= 2.

Three tools live here:

* :func:`jordan_chevalley` -- the exact semisimple/nilpotent splitting of a
  scalar matrix, by Newton iteration against the squarefree part of its
  characteristic polynomial (quadratic convergence, so the iteration count
  is logarithmic in the matrix size).

* :func:`sibuya_normalize` -- gauge away, order by order, the components of
  the higher coefficients that lie in a chosen complement of a kernel
  subspace adapted to the leading coefficient.  Each step gauges by
  ``exp(-u**i C)`` with a constant matrix ``C``, which changes the
  coefficient at offset ``i`` by exactly ``ad(lead)(C)`` and nothing below.

* :func:`eigen_block_split` -- once every coefficient commutes with the
  semisimple part of the lead, split the connection along the eigenvalue
  clusters of that semisimple part, adjoining an algebraic eigenvalue to the
  tower when the characteristic polynomial refuses to factor rationally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .connection import Connection
from .errors import DomainViolation, EngineError, NotInvertible, ScalarLeadingTerm
from .field import (
    FieldElement,
    FieldTower,
    _poly_gcd,
    _unfold,
    common_context,
    common_tower,
    poly_divmod,
    poly_eval,
    poly_squarefree_part,
    poly_trim,
)
from .matrices import LaurentMatrix, matrix_exp
from .series import INF


# ---------------------------------------------------------------------------
# semisimple / nilpotent splitting
# ---------------------------------------------------------------------------


@dataclass
class JordanPair:
    """Additive splitting ``m = semisimple + nilpotent`` with both parts
    polynomials in ``m`` (hence commuting)."""

    semisimple: list
    nilpotent: list


def jordan_chevalley(m: Sequence[Sequence[FieldElement]]) -> JordanPair:
    n = len(m)
    p = linalg.charpoly(m)
    g = poly_squarefree_part(p)
    dg = [c * (k + 1) for k, c in enumerate(g[1:])]
    x = [list(row) for row in m]
    max_iter = n.bit_length() + 2
    for _ in range(max_iter):
        gx = linalg.poly_at_matrix(g, x)
        if linalg.is_zero_matrix(gx):
            break
        correction = linalg.mat_mul(linalg.inverse(linalg.poly_at_matrix(dg, x)), gx)
        x = linalg.mat_sub(x, correction)
    else:  # pragma: no cover - convergence is quadratic and the bound generous
        if not linalg.is_zero_matrix(linalg.poly_at_matrix(g, x)):
            raise EngineError("semisimple-part iteration failed to converge")
    return JordanPair(x, linalg.mat_sub(m, x))


def is_scalar_matrix(m: Sequence[Sequence[FieldElement]]) -> bool:
    n = len(m)
    d = m[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if not (m[i][j] - d).is_zero():
                    return False
            elif not m[i][j].is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# rational roots of tower polynomials
# ---------------------------------------------------------------------------


def _divisors(k: int) -> list[int]:
    k = abs(k)
    out = set()
    d = 1
    while d * d <= k:
        if k % d == 0:
            out.add(d)
            out.add(k // d)
        d += 1
    return sorted(out)


def _rational_poly_roots(g: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial over Q (rational root theorem)."""
    cs = list(g)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    roots: set[Fraction] = set()
    while cs and cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) <= 1:
        return sorted(roots)

    def value(theta: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * theta + c
        return acc

    mult = lcm(*(c.denominator for c in cs))
    ints = [int(c * mult) for c in cs]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if value(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def rational_roots(poly: Sequence[FieldElement]) -> list[Fraction]:
    """Rational roots of a polynomial whose coefficients live in a tower.

    A rational ``theta`` is a root iff every Q-coordinate of the coefficient
    vector vanishes at ``theta``; those coordinates give ordinary rational
    polynomials whose gcd pins the candidates down.
    """
    cs = poly_trim(list(poly))
    if len(cs) < 2:
        return []
    tower = common_context([cs])[0]
    coords = [dict(_unfold(tower, c.level, c.payload)) for c in cs]
    slot_polys = [[cd.get(p, Fraction(0)) for cd in coords]
                  for p in sorted(set().union(*coords))]
    g = functools.reduce(functools.partial(_poly_gcd, tower, 0), slot_polys)
    candidates = _rational_poly_roots(g)
    out = []
    for theta in candidates:
        if poly_eval(cs, tower.rational(theta)).is_zero():
            out.append(theta)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# order-by-order coefficient normalization
# ---------------------------------------------------------------------------


@dataclass
class AdSplitting:
    """A complementary pair ``gl_n = span(kernel) + span(target)`` together
    with a source space that ``ad(lead)`` carries bijectively onto the target.

    Vectors are row-major flattenings of n-by-n matrices.
    """

    kernel: list
    target: list
    source: list
    label: str = ""


def splitting_from_semisimple(s: Sequence[Sequence[FieldElement]]) -> AdSplitting:
    """``gl_n = ker(ad_s) + im(ad_s)`` for a semisimple ``s``.

    The full ``ad(lead) = ad_s + ad_f`` is invertible on ``im(ad_s)`` because
    ``ad_f`` is nilpotent there and commutes with ``ad_s``.
    """
    ad = linalg.ad_matrix(s)
    kernel = linalg.nullspace(ad)
    image = linalg.column_space_basis(ad)
    return AdSplitting(kernel, image, image, "ad-semisimple")


def splitting_from_sl2(e: Sequence[Sequence[FieldElement]],
                       f: Sequence[Sequence[FieldElement]]) -> AdSplitting:
    """``gl_n = ker(ad_e) + im(ad_f)`` for an sl2 triple through a nilpotent
    lead ``f``; corrections are drawn from ``im(ad_e)``, which ``ad_f`` maps
    bijectively onto ``im(ad_f)``."""
    kernel = linalg.nullspace(linalg.ad_matrix(e))
    target = linalg.column_space_basis(linalg.ad_matrix(f))
    source = linalg.column_space_basis(linalg.ad_matrix(e))
    return AdSplitting(kernel, target, source, "ad-sl2")


@dataclass
class NormalizationRecord:
    connection: Connection
    gauge: LaurentMatrix
    corrections: list = dataclass_field(default_factory=list)


def sibuya_normalize(c: Connection, splitting: AdSplitting) -> NormalizationRecord:
    """Gauge every known coefficient above the lead into the kernel summand.

    Requires a truncated connection with pole order >= 2.  Step ``i`` gauges
    by ``exp(-u**i C_i)`` where ``ad(lead)(C_i)`` cancels the target-space
    component of the coefficient at exponent ``-r + i``; the step changes
    that coefficient by exactly that amount, touches nothing below it, and
    preserves the overall precision.  ``C_i`` therefore only depends on the
    coefficients up to exponent ``-r + i``.

    Both maps a step needs are fixed by the lead and the splitting, so they
    are solved for once: ``to_target`` reads off the target coordinates of a
    coefficient, and ``cancel`` carries target coordinates to ``C_i``.
    """
    if c.prec is INF:
        raise DomainViolation(
            "coefficient normalization needs a truncated connection; "
            "truncate to a working precision first"
        )
    n = c.size
    nn = n * n
    lead = c.leading()
    r = -c.valuation
    if r < 2:
        raise DomainViolation("coefficient normalization requires a pole of order >= 2")
    kernel, target, source = splitting.kernel, splitting.target, splitting.source
    if len(kernel) + len(target) != nn:
        raise DomainViolation("kernel and target do not have complementary dimensions")
    s_prec = c.prec
    if not target:
        return NormalizationRecord(c, LaurentMatrix.identity(c.tower, n, c.ram))
    try:
        to_target = linalg.inverse(linalg.transpose(kernel + target))[len(kernel):]
    except NotInvertible:
        raise DomainViolation("kernel and target do not span gl_n") from None
    # solve() sets free variables to zero, so its answer is linear in the
    # right-hand side and one solve per target vector serves every step
    source_mat = linalg.transpose(source)
    solve_mat = linalg.mat_mul(linalg.ad_matrix(lead), source_mat)
    cancel = linalg.transpose(
        [[-x for x in linalg.mat_vec(source_mat, linalg.solve(solve_mat, t))]
         for t in target])

    work = c
    total = LaurentMatrix.identity(c.tower, n, c.ram)
    corrections = []
    for i in range(1, s_prec + r):
        coords = linalg.mat_vec(to_target, linalg.vec(work.coeff(-r + i)))
        if all(x.is_zero() for x in coords):
            continue
        c_mat = linalg.unvec(linalg.mat_vec(cancel, coords), n, n)
        xi = LaurentMatrix.constant(work.tower, c_mat, work.ram).shift(i) * (-1)
        g = matrix_exp(xi.truncate(s_prec + r))
        work = work.gauge(g)
        total = g * total
        corrections.append((i, c_mat))
    if work.prec != s_prec or work.valuation != -r:
        raise EngineError("normalization changed the precision or the pole order")
    for i in range(1, s_prec + r):
        leftover = linalg.mat_vec(to_target, linalg.vec(work.coeff(-r + i)))
        if not all(x.is_zero() for x in leftover):
            raise EngineError(
                f"coefficient at offset {i} still has a component in the "
                "complement after normalization"
            )
    return NormalizationRecord(work, total, corrections)


# ---------------------------------------------------------------------------
# eigenvalue block splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    blocks: list
    sizes: list
    transform: LaurentMatrix
    tower: FieldTower


def _coprime_factors(m_poly: list, tower: FieldTower) -> list:
    """Split a squarefree monic polynomial into monic coprime factors:
    one linear factor per rational root, plus whatever is left."""
    factors = []
    rest = [tower.coerce(c) for c in m_poly]
    for theta in rational_roots(rest):
        lin = [tower.rational(-theta), tower.one()]
        rest, rem = poly_divmod(rest, lin)
        if any(not c.is_zero() for c in rem):  # pragma: no cover
            raise EngineError("verified rational root failed to divide")
        factors.append(lin)
    if len(rest) >= 2:
        factors.append(rest)
    return factors


def _poly_hint_key(q: Sequence[FieldElement], tower: FieldTower) -> tuple:
    """Hashable fingerprint of a monic polynomial over ``tower``'s top level.

    Matches what :meth:`FieldTower.extend` would register, so a
    ``ZeroDivisorSplit`` raised after adjoining ``q`` carries the same key in
    ``exc.tower.levels[exc.level - 1]``.
    """
    return tuple(tower.coerce(cf)._lifted(tower, tower.depth).payload for cf in q)


def _apply_hints(factors: list, tower: FieldTower, hints) -> list:
    """Replace factors with remembered factorizations, repeatedly."""
    if not hints:
        return factors
    out = []
    queue = list(factors)
    while queue:
        q = queue.pop(0)
        known = hints.get(_poly_hint_key(q, tower)) if len(q) >= 3 else None
        if known is None:
            out.append(q)
        else:
            queue.extend([FieldElement(tower, tower.depth, pl) for pl in part]
                         for part in known)
    return out


def eigen_block_split(c: Connection, s: Sequence[Sequence[FieldElement]],
                      hints=None) -> SplitResult:
    """Split ``c`` along the eigenvalue clusters of the semisimple matrix ``s``.

    Every known coefficient of ``c`` must commute with ``s`` (which is what
    :func:`sibuya_normalize` with :func:`splitting_from_semisimple`
    guarantees), so a constant base change to the kernels of the coprime
    factors of ``s``'s minimal polynomial makes ``c`` block diagonal.

    If the minimal polynomial has no rational factorization at all, one
    algebraic root is adjoined to the tower; a degree-2-or-more cofactor is
    left unsplit for later rounds rather than forcing a full splitting field
    now.  Divisions behind the elimination may discover that an adjoined
    polynomial factors (``ZeroDivisorSplit``); the caller owns the retry.
    ``hints`` maps fingerprints of monic polynomials (as recorded by such a
    split) to pairs of factor payload tuples; factors found there are split
    without any adjunction, which is how a retry avoids re-raising.
    """
    n = c.size
    m_poly = poly_squarefree_part(linalg.charpoly(s))
    if len(m_poly) == 2:
        raise ScalarLeadingTerm("the semisimple part is scalar; nothing to split")
    tower = common_context(s)[0]
    tower = common_tower(tower, c.tower)
    factors = _apply_hints(_coprime_factors(m_poly, tower), tower, hints)
    if len(factors) == 1:
        ext = tower.extend(factors[0])
        theta = ext.gen()
        lin = [-theta, ext.one()]
        rest = [ext.coerce(cf) for cf in factors[0]]
        quot, rem = poly_divmod(rest, lin)
        if any(not cf.is_zero() for cf in rem):  # pragma: no cover
            raise EngineError("adjoined root failed to divide its own polynomial")
        factors = [lin, quot]
        tower = ext
        s = [[tower.coerce(x) for x in row] for row in s]
    kernels = [linalg.nullspace(linalg.poly_at_matrix(q, s)) for q in factors]
    sizes = [len(k) for k in kernels]
    if sum(sizes) != n or any(sz == 0 for sz in sizes):
        raise EngineError("eigenvalue clusters do not fill the space")
    columns = [v for k in kernels for v in k]
    p_mat = linalg.transpose(columns)
    p_inv = linalg.inverse(p_mat)
    g = LaurentMatrix.constant(tower, p_inv, c.ram)
    gauged = c.gauge(g)
    blocks = gauged.block_split(sizes)
    return SplitResult(blocks, sizes, g, tower)
