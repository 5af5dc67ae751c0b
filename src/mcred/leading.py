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
  :func:`commutes` tells when there is nothing to gauge away.

* :func:`eigen_block_split` -- once every coefficient commutes with the
  semisimple part of the lead, split the connection along the eigenvalue
  clusters of that semisimple part, adjoining an algebraic eigenvalue to the
  tower when the characteristic polynomial refuses to factor rationally.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Sequence

from . import linalg
from .connection import Connection
from .errors import DomainViolation, EngineError, NotInvertible, ScalarLeadingTerm
from .field import (
    FieldElement,
    FieldTower,
    _poly_gcd,
    _poly_squarefree,
    _unfold,
    common_context,
    common_tower,
    poly_divmod,
    poly_squarefree_part,
    poly_trim,
)
from .matrices import LaurentMatrix
from .series import (INF, _ONE, _accumulate, _constant_forms, _constants, _form_product,
                     _forms, _from_form, _negated, _settle)


# ---------------------------------------------------------------------------
# semisimple / nilpotent splitting
# ---------------------------------------------------------------------------


@dataclass
class JordanPair:
    """Additive splitting ``m = semisimple + nilpotent`` with both parts
    polynomials in ``m`` (hence commuting), and ``minpoly``, the squarefree
    part of the characteristic polynomial of ``m``: the minimal polynomial
    of the semisimple part, which has the same characteristic polynomial."""

    semisimple: list
    nilpotent: list
    minpoly: list


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
    return JordanPair(x, linalg.mat_sub(m, x), g)


# ---------------------------------------------------------------------------
# rational roots of tower polynomials: the roots of the gcd of their
# coordinate polynomials over Q, by p-adic lifting in polynomial time
# ---------------------------------------------------------------------------


def _value_and_slope(h: list[int], y: int) -> tuple[int, int]:
    """``(h(y), h'(y))`` of an integer polynomial, by one Horner pass."""
    value = slope = 0
    for c in reversed(h):
        slope = slope * y + value
        value = value * y + c
    return value, slope


def _monic_integral(cs: list[Fraction]) -> tuple[int, list[int]]:
    """``(lc, h)``: ``cs`` cleared to integers ``f`` with leading coefficient
    ``lc``, and the monic ``h(y) = lc**(d-1) f(y / lc)``, with roots ``lc·r``."""
    mult = lcm(*(c.denominator for c in cs))
    f = [c.numerator * (mult // c.denominator) for c in cs]
    lc, d = f[-1], len(f) - 1
    return lc, [c * lc ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]


def _rational_poly_roots(g: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial over Q, by p-adic lifting (Loos).

    A rational root ``r`` gives the integer root ``lc·r`` of ``h``
    (:func:`_monic_integral`).  At the first prime ``p ∤ lc`` where every
    root of ``h`` mod ``p`` is simple (a prime dividing ``lc`` makes 0 a
    ``(d-1)``-fold one), each is Newton-lifted mod ``p**(2**k)`` past twice
    the Cauchy bound ``1 + max|h_i|`` and kept if its symmetric residue is
    an exact root.  An integer root reduces to a simple root mod ``p`` and
    lifts to itself, so none is missed.  A repeated root fails every prime:
    after three failures ``h`` is rebuilt, once, from the squarefree part.
    """
    cs = list(g)
    while cs and cs[-1] == 0:
        cs.pop()
    zero = []
    while len(cs) > 1 and cs[0] == 0:
        cs.pop(0)
        zero = [Fraction(0)]
    if len(cs) <= 1:
        return zero
    lc, h = _monic_integral(cs)
    primes = (q for q in count(2) if lc % q and all(q % k for k in range(2, isqrt(q) + 1)))
    for tries, p in enumerate(primes):
        if tries == 3:
            lc, h = _monic_integral(_poly_squarefree(FieldTower(), 0, cs))
        hp = [c % p for c in h]
        residues = [a for a in range(p) if _value_and_slope(hp, a)[0] % p == 0]
        if all(_value_and_slope(hp, a)[1] % p for a in residues):
            break
    bound = 2 * (1 + max(map(abs, h)))
    found = []
    for y in residues:
        m = p
        while m <= bound:
            m *= m
            value, slope = _value_and_slope(h, y)
            y = (y - value * pow(slope, -1, m)) % m
        y = y - m if 2 * y > m else y
        if _value_and_slope(h, y)[0] == 0:
            found.append(Fraction(y, lc))
    return sorted(zero + found)


def rational_roots(poly: Sequence[FieldElement]) -> list[Fraction]:
    """Rational roots of a polynomial whose coefficients live in a tower.

    A rational ``theta`` is a root iff every Q-coordinate of the coefficient
    vector vanishes at ``theta``; those coordinates give ordinary rational
    polynomials whose gcd has exactly the roots sought.
    """
    cs = poly_trim(list(poly))
    if len(cs) < 2:
        return []
    tower = common_context([cs])[0]
    coords = [dict(_unfold(tower, c.level, c.payload)) for c in cs]
    slot_polys = [[cd.get(p, Fraction(0)) for cd in coords]
                  for p in sorted(set().union(*coords))]
    return _rational_poly_roots(
        functools.reduce(functools.partial(_poly_gcd, tower, 0), slot_polys))


# ---------------------------------------------------------------------------
# order-by-order coefficient normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationRecord:
    connection: Connection
    gauge: LaurentMatrix
    corrections: list = dataclass_field(default_factory=list)


# The step loop of :func:`sibuya_normalize` keeps its matrices, and the
# constant maps it applies, as grids of :func:`series._integral` forms
# ``(valuation, prec, den, terms)``, ``None`` for an exact zero, all over one
# tower and ramification.  A constant's form has valuation 0, precision
# ``INF`` and every key below ``tower.sizes[-1]``.  Over Q the constant maps
# are one integer matrix over one denominator, ``(den, rows)``, instead.


def _over_den(forms: list) -> tuple:
    """``(den, rows)``: a grid of constant forms over Q as integers over
    their least common denominator."""
    den = lcm(*[f[2] for row in forms for f in row if f])
    return den, [[f[3][0][1] * (den // f[2]) if f else 0 for f in row] for row in forms]


def _int_product(a: tuple, b: tuple) -> tuple:
    """The product of two ``(den, rows)`` matrices, divided by the gcd of
    its entries and denominator."""
    (da, ra), (db, rb) = a, b
    cols = list(zip(*rb))
    rows = [[sum(x * y for x, y in zip(row, col) if x) for col in cols] for row in ra]
    g = gcd(da * db, *[x for row in rows for x in row])
    return da * db // g, [[x // g for x in row] for row in rows]


def _den_forms(den: int, rows: list) -> list:
    """The constant forms of the ``(den, rows)`` matrix over Q."""
    return [[(0, INF, den, [(0, x)]) if x else None for x in row] for row in rows]


def _coefficients(forms: list, e: int, size: int) -> list:
    """The column of constant forms of the row-major coefficients at ``u**e``
    of a grid of forms.  A step never lowers an entry's precision below the
    connection's, so every ``e`` a step reads is known."""
    lo, hi = e * size, (e + 1) * size
    column = []
    for f in (f for row in forms for f in row):
        terms = f[3] if f else []
        a = bisect.bisect_left(terms, (lo,))
        b = bisect.bisect_left(terms, (hi,), a)
        column.append([(0, INF, f[2], [(k - lo, num) for k, num in terms[a:b]]) if a < b
                       else None])
    return column


def _polynomial(parts: list, prec, size: int) -> tuple:
    """The form of ``sum(u**e * x for e, x in parts)`` known below ``prec``,
    for increasing ``e`` and constant forms ``x`` (``None`` adds nothing):
    the keys of ``x`` move up by ``e * size``.  A sum of no terms is still
    known only below ``prec``."""
    parts = [(e, x) for e, x in parts if x]
    den = lcm(*[x[2] for _, x in parts])
    terms = [(e * size + k, num * (den // x[2])) for e, x in parts for k, num in x[3]]
    return terms[0][0] // size if terms else prec, prec, den, terms


def _step_gauge(tower: FieldTower, c_forms: list, i: int, p: int) -> tuple:
    """``(E, E**-1, D)`` as grids of forms for ``E = exp(-u**i C)``, where
    ``c_forms`` holds the constant forms of ``C``: ``E`` and ``E**-1 =
    exp(u**i C)`` modulo ``u**p``, every entry known below ``p``, from one
    list of the powers of ``C``; and ``D`` the pairs whose products add
    ``-(dE/du) E**-1 = i u**(i-1) C``, known below ``p - 1``.  Over Q each
    power ``C**k / k!`` is one ``(den, rows)`` matrix, one integer product
    from the last; over a tower it is one :func:`series._form_product`."""
    n, size = len(c_forms), tower.sizes[-1]
    powers = [[[_ONE if a == b else None for b in range(n)] for a in range(n)]]
    if size == 1:
        den, c_rows = _over_den(c_forms)
        power = (1, [[int(a == b) for b in range(n)] for a in range(n)])
    for k in range(1, (p - 1) // i + 1):  # powers[k] = C**k / k! = powers[k-1] (C / k)
        if size == 1:
            power = _int_product(power, (den * k, c_rows))
            forms = _den_forms(*power)
        else:
            forms = _form_product(tower, powers[-1], [[x and (0, INF, x[2] * k, x[3])
                                                       for x in row] for row in c_forms])
        if all(x is None for row in forms for x in row):
            break
        powers.append(forms)

    def exponential(sign: int) -> list:
        return [[_polynomial([(i * k, _negated(t[a][b]) if sign < 0 and k % 2 else t[a][b])
                          for k, t in enumerate(powers)], p, size)
                 for b in range(n)] for a in range(n)]

    dlog = [[(_polynomial([(i - 1, x)], p - 1, size), (0, INF, 1, [(0, i)])) for x in row]
            for row in c_forms]
    return exponential(-1), exponential(1), dlog


def _matrix(tower: FieldTower, ram: int, forms: list) -> LaurentMatrix:
    """The matrix of series with these forms."""
    return LaurentMatrix(tower, [[_from_form(tower, ram, f) for f in row] for row in forms], ram)


def sibuya_normalize(c: Connection, x: Sequence[Sequence[FieldElement]]) -> NormalizationRecord:
    """Gauge every known coefficient above the lead into ``K = ker ad(x)``.

    Requires a truncated connection with pole order >= 2, and an ``x`` whose
    image ``S = im ad(x)`` ``ad(lead)`` carries onto a complement of ``K``:
    the semisimple part ``s`` of the lead (``ad(lead) = ad_s + ad_f`` is
    invertible on ``im ad_s``, where ``ad_f`` is nilpotent and commutes with
    ``ad_s``), or the ``e`` of an sl2 triple through a nilpotent lead ``f``
    (``ad_f`` maps ``im ad_e`` onto ``im ad_f``, a complement of
    ``ker ad_e``).  Step ``i`` gauges by ``E = exp(-u**i C_i)`` where
    ``ad(lead)(C_i)`` cancels the ``span(ad(lead) S)`` component of the
    coefficient at exponent ``-r + i``; the step changes that coefficient by
    exactly that amount, touches nothing below it, and preserves the
    overall precision.  ``C_i`` therefore only depends on the coefficients
    up to exponent ``-r + i``.

    One elimination of ``ad(x)`` gives ``K`` and ``S``, and one inverse of
    the n²-by-n² matrix with columns ``K`` then ``ad(lead) S`` gives the map
    a step applies: the last ``len(S)`` rows of that inverse read off the
    ``b`` of a coefficient's component ``ad(lead)(S b)``, so
    ``C_i = -S b`` and ``step = -S . rows``.  ``C_i = 0`` exactly when
    ``b = 0``, because the columns of ``S`` are independent.  If the
    inverse does not exist, ``x`` does not fit the lead.

    A step needs no gauge: ``E**-1 = exp(u**i C_i)`` and
    ``(dE/du) E**-1 = -i u**(i-1) C_i`` in closed form.  So with
    ``p = prec + r`` it sets ``G <- E G E**-1 + i u**(i-1) C_i`` (the last
    term known below ``p - 1``) and ``total <- E total``, where ``E`` and
    ``E**-1`` are known below ``p`` and come from one list of the powers of
    ``C_i``.  Every coefficient and precision is the one the general gauge
    ``E G E**-1 - (dE/du) E**-1`` would give.

    The loop builds no series, and field elements only for the recorded
    ``C_i``: ``G`` and ``total`` are grids of the product kernel's integer
    forms (:func:`series._integral`), every window product is one
    :func:`series._form_product`, and the last term of ``G`` is one more
    pair in the accumulation of ``(E G) E**-1``.  A step reads its
    coefficient column straight off those forms; an all-zero column is no
    step, with no product.  ``E``, ``E**-1`` and the last term are shifts
    of the keys of the powers of ``C_i`` (:func:`_step_gauge`).  Over Q,
    ``step``, each ``C_i`` and each power are one integer matrix over one
    denominator, and each product of them one integer matrix product
    (:func:`_int_product`); over a tower they are grids of constant forms.
    Each ``C_i`` is recorded at the top level of the tower
    (:func:`series._constants`).
    The two matrices are built once, after the last step.  The final check
    that no ``ad(lead) S`` component is left is one product of ``rows``
    with the column of all of ``G``.
    """
    if c.prec is INF:
        raise DomainViolation(
            "coefficient normalization needs a truncated connection; "
            "truncate to a working precision first"
        )
    n = c.size
    lead = c.leading()
    r = -c.valuation
    if r < 2:
        raise DomainViolation("coefficient normalization requires a pole of order >= 2")
    s_prec = c.prec
    kernel, image = linalg.kernel_and_image(linalg.ad_matrix(x))
    if not image:
        return NormalizationRecord(c, LaurentMatrix.identity(c.tower, n, c.ram))
    source = linalg.transpose(image)
    moved = linalg.mat_mul(linalg.ad_matrix(lead), source)
    try:
        rows = linalg.inverse([[v[k] for v in kernel] + row
                               for k, row in enumerate(moved)])[len(kernel):]
    except NotInvertible:
        raise DomainViolation("ker ad(x) and ad(lead)(im ad(x)) do not span gl_n") from None

    p = s_prec + r
    ram = c.ram
    tower = common_tower(c.tower, common_context(rows)[0])
    size = tower.sizes[-1]
    rows = _constant_forms(rows)
    minus_source = _constant_forms(linalg.mat_neg(source))
    if size == 1:
        step = _int_product(_over_den(minus_source), _over_den(rows))

        def step_map(column: list) -> list:
            return _den_forms(*_int_product(step, _over_den(column)))
    else:
        step_map = functools.partial(_form_product, tower,
                                     _form_product(tower, minus_source, rows))
    work = _forms(c.matrix.entries, ram, size)
    total = [[_ONE if a == b else None for b in range(n)] for a in range(n)]
    corrections = []
    for i in range(1, p):
        column = _coefficients(work, -r + i, size)
        if all(x is None for x, in column):
            continue
        c_col = step_map(column)
        if all(x is None for x, in c_col):
            continue
        c_forms = [[x for x, in c_col[a * n:(a + 1) * n]] for a in range(n)]
        e, e_inv, dlog = _step_gauge(tower, c_forms, i, p)
        ew = _form_product(tower, e, work)
        work = [[_settle(tower, *_accumulate(size, [*zip(ew_row, col), d]))
                 for col, d in zip(zip(*e_inv), dlog_row)]
                for ew_row, dlog_row in zip(ew, dlog)]
        total = _form_product(tower, e, total)
        corrections.append((i, _constants(tower, tower.depth, c_forms)))
    if corrections:
        matrix, total = _matrix(tower, ram, work), _matrix(tower, ram, total)
    else:
        matrix, total = c.matrix, LaurentMatrix.identity(c.tower, n, ram)
    if matrix.prec != s_prec or matrix.valuation != -r:
        raise EngineError("normalization changed the precision or the pole order")
    leftover = _form_product(tower, rows, [[x] for row in work for x in row])
    keys = [k for x, in leftover if x for k, _ in x[3] if (1 - r) * size <= k < s_prec * size]
    if keys:
        raise EngineError(
            f"coefficient at offset {min(keys) // size + r} still has a component in the "
            "complement after normalization"
        )
    return NormalizationRecord(Connection(matrix), total, corrections)


def commutes(c: Connection, x: Sequence[Sequence[FieldElement]]) -> bool:
    """Whether ``x G == G x`` on the known window, for a constant ``x``.

    Then :func:`sibuya_normalize` against ``x`` finds every ``C_i`` zero,
    since every coefficient already lies in ``K = ker ad(x)``.  Each entry
    of ``x G - G x`` is one :func:`series._accumulate`, settled to read its
    known terms."""
    tower = common_tower(c.tower, common_context(x)[0])
    size = tower.sizes[-1]
    x_rows = _constant_forms(x)
    g_rows = _forms(c.matrix.entries, c.ram, size)
    x_cols, g_cols = list(zip(*x_rows)), list(zip(*g_rows))
    for x_row, g_row in zip(x_rows, g_rows):
        minus_g_row = [_negated(f) for f in g_row]
        for x_col, g_col in zip(x_cols, g_cols):
            f = _settle(tower, *_accumulate(size, [*zip(x_row, g_col), *zip(minus_g_row, x_col)]))
            if f and f[3]:
                return False
    return True


# ---------------------------------------------------------------------------
# eigenvalue block splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    """The diagonal blocks of ``c.gauge(transform)``, their sizes, and the
    constant ``transform`` with its inverse ``transform_inv``."""

    blocks: list
    sizes: list
    transform: LaurentMatrix
    transform_inv: LaurentMatrix


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


def eigen_block_split(c: Connection, jc: JordanPair, hints=None) -> SplitResult:
    """Split ``c`` along the eigenvalue clusters of the semisimple part
    ``s = jc.semisimple`` of its lead.

    Every known coefficient of ``c`` must commute with ``s`` (which is what
    :func:`sibuya_normalize` against ``s`` guarantees), so a constant base
    change to the kernels of the coprime factors of ``s``'s minimal
    polynomial ``jc.minpoly`` makes ``c`` block diagonal.  That change is
    ``P**-1`` for the matrix ``P`` whose columns are kernel bases, so the
    gauge takes ``P`` as its inverse and the result keeps both.  A block
    whose lead is the block of ``c``'s lead has, as its lead's semisimple
    part, the block of ``s``, with which every coefficient of the block
    commutes (see :func:`commutes`).

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
    if len(jc.minpoly) == 2:
        raise ScalarLeadingTerm("the semisimple part is scalar; nothing to split")
    s = jc.semisimple
    tower = common_tower(common_context(s)[0], c.tower)
    factors = _apply_hints(_coprime_factors(jc.minpoly, tower), tower, hints)
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
    p_mat = linalg.transpose([v for k in kernels for v in k])
    g = LaurentMatrix.constant(tower, linalg.inverse(p_mat), c.ram)
    g_inv = LaurentMatrix.constant(tower, p_mat, c.ram)
    blocks = c.gauge(g, g_inv).block_split(sizes)
    return SplitResult(blocks, sizes, g, g_inv)
