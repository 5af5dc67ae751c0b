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
  coefficient at offset ``i`` by exactly ``ad(lead)(C)`` and nothing below;
  the steps of the upper half of the window commute and take one gauge.
  :func:`commutes` tells when there is nothing to gauge away.  Constant
  matrices multiply as ``(den, parts)`` integer matrices
  (:func:`series._matrix_product`), series as integer forms.

* :func:`eigen_block_split` -- once every coefficient commutes with the
  semisimple part of the lead, split the connection along the eigenvalue
  clusters of that semisimple part, adjoining an algebraic eigenvalue to the
  tower when the characteristic polynomial refuses to factor rationally.

A polynomial is the list of its coefficients' forms, ascending (see
:mod:`mcred.field`): ``JordanPair.minpoly`` holds one, :func:`rational_roots`
reads one, and the hint keys of :func:`eigen_block_split` are ``tuple(q)``
for a factor ``q``, the level :meth:`FieldTower.extend` registers for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from typing import Sequence

from . import linalg
from .connection import Connection
from .errors import DomainViolation, EngineError, NotInvertible, ScalarLeadingTerm
from .field import (_UNIT, FieldElement, FieldTower, _mul, _poly_divmod, _poly_squarefree,
                    _poly_trim, _rational, common_context, common_tower)
from .matrices import LaurentMatrix
from .series import (INF, _ONE, _form_product, _forms, _from_form, _gathered, _is_zero,
                     _matrix_form, _matrix_product, _sum_of_products)


# ---------------------------------------------------------------------------
# semisimple / nilpotent splitting
# ---------------------------------------------------------------------------


@dataclass
class JordanPair:
    """Additive splitting ``m = semisimple + nilpotent`` with both parts
    polynomials in ``m`` (hence commuting), and ``minpoly``, the squarefree
    part of the characteristic polynomial of ``m``: the minimal polynomial
    of the semisimple part, which has the same characteristic polynomial;
    monic, over ``m``'s tower."""

    semisimple: list
    nilpotent: list
    minpoly: list


def jordan_chevalley(m: Sequence[Sequence[FieldElement]]) -> JordanPair:
    n = len(m)
    tower = common_context(m)
    g = _poly_squarefree(tower, linalg.charpoly(m))
    dg = [_mul(tower, c, _rational(k)) for k, c in enumerate(g) if k]
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
# rational roots of tower polynomials: the common roots of their coordinate
# polynomials over Q, by p-adic lifting in polynomial time
# ---------------------------------------------------------------------------


def _value_and_slope(h: list, y):
    """``(h(y), h'(y))`` of a polynomial over Q, by one Horner pass."""
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
            lc, h = _monic_integral([Fraction(sum(n for _, n in terms), den) for den, terms in
                                     _poly_squarefree(FieldTower(), list(map(_rational, cs)))])
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


def rational_roots(poly: Sequence[tuple]) -> list[Fraction]:
    """Rational roots of a polynomial over a tower, the forms of its
    coefficients ascending.

    A rational ``theta`` is a root iff every Q-coordinate of the coefficient
    vector vanishes at ``theta``: the roots of the first coordinate
    polynomial at which every other one vanishes.
    """
    cs = _poly_trim(list(poly))
    if len(cs) < 2:
        return []
    coords = [dict(terms) for _, terms in cs]
    first, *rest = [[Fraction(cd.get(p, 0), den) for (den, _), cd in zip(cs, coords)]
                    for p in sorted(set().union(*coords))]
    return [r for r in _rational_poly_roots(first)
            if all(_value_and_slope(f, r)[0] == 0 for f in rest)]


# ---------------------------------------------------------------------------
# order-by-order coefficient normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationRecord:
    """The normalized connection, the gauge that made it, and each step
    ``(i, C_i)`` that gauge is built from, in increasing ``i``, with ``C_i``
    the ``(den, parts)`` matrix of :func:`series._gathered` over the tower
    of ``connection``."""

    connection: Connection
    gauge: LaurentMatrix
    corrections: list = dataclass_field(default_factory=list)


def _coefficients(forms: list, exps, size: int) -> tuple:
    """The ``(den, parts)`` matrix whose column ``j`` holds the row-major
    coefficients at ``u**exps[j]`` of a grid of forms.  A step never lowers
    an entry's precision below the connection's, so every ``e`` a step reads
    is known."""
    flat, column = [f for row in forms for f in row], {e: j for j, e in enumerate(exps)}
    return _gathered(len(flat), len(column), [
        (a, column[k // size], k % size, num, f[2]) for a, f in enumerate(flat) if f
        for k, num in f[3] if k // size in column])


def _polynomial(terms: list, prec, size: int) -> list:
    """The grid of forms, known below ``prec``, of ``sum(sign * u**e * x)`` over
    ``(e, sign, x)`` in ``terms``, for increasing ``e`` and ``(den, parts)``
    matrices ``x``: the positions of ``x`` move up by ``e * size``.  An
    entry with no terms is zero known only below ``prec``."""
    den = lcm(*[x[0] for _, _, x in terms])
    grid = [[[] for _ in row] for row in terms[0][2][1][0]]
    for e, sign, (d, parts) in terms:
        for pos in sorted(parts):
            for entries, values in zip(grid, parts[pos]):
                for entry, v in zip(entries, values):
                    if v:
                        entry.append((e * size + pos, sign * v * (den // d)))
    return [[(t[0][0] // size if t else prec, prec, den, t) for t in row] for row in grid]


def _identity(n: int) -> tuple:
    """The ``(den, parts)`` matrix of the n-by-n identity."""
    return 1, {0: [[int(a == b) for b in range(n)] for a in range(n)]}


def _square(form: tuple, j: int, n: int) -> tuple:
    """The n-by-n ``(den, parts)`` matrix whose rows are read, row-major, off
    column ``j`` of the n²-row matrix ``form``."""
    den, parts = form
    return den, {pos: [[m[a * n + b][j] for b in range(n)] for a in range(n)]
                 for pos, m in parts.items()}


def _joined(blocks: list, across: bool) -> tuple:
    """The ``(den, parts)`` matrix of the n-by-n blocks ``k * x`` for ``(k, x)``
    in ``blocks``, side by side when ``across``, else stacked."""
    den = lcm(*[d for _, (d, _) in blocks])
    n = len(blocks[0][1][1][0])
    zero, parts = [[0] * n for _ in range(n)], {}
    for pos in {q for _, (_, ps) in blocks for q in ps}:
        mats = [[[k * (den // d) * v for v in row] for row in ps[pos]] if pos in ps else zero
                for k, (d, ps) in blocks]
        parts[pos] = [sum(rows, []) for rows in zip(*mats)] if across else sum(mats, [])
    return den, parts


def _step_gauge(tower: FieldTower, steps: list, p: int) -> tuple:
    """``(E, E**-1, D)`` as grids of forms for the gauge of ``steps``, a list
    of ``(i, C_i)`` in increasing ``i`` with each ``C_i`` a ``(den, parts)``
    matrix: ``E`` and ``E**-1`` modulo ``u**p``, every entry known below
    ``p``, and ``D`` the pairs whose products add ``-(dE/du) E**-1``, known
    below ``p - 1``.  One step gives ``E = exp(-u**i C)`` and ``E**-1 =
    exp(u**i C)`` from one list of the powers ``C**k / k!``, each one
    :func:`series._matrix_product` from the last, and ``D = i u**(i-1) C``.
    Several steps must all have ``2 i >= p``, so that every product of two
    of their terms lies past the window: then ``E = I - sum(u**i C_i)``,
    ``E**-1 = I + sum(u**i C_i)`` and ``D = sum(i u**(i-1) C_i)``."""
    size, n = tower.sizes[-1], len(steps[0][1][1][0])
    powers = [(0, 0, _identity(n))]
    for i, (den, parts) in steps:
        power = (den, parts)
        for k in range(1, (p - 1) // i + 1):  # C**k / k! = (C**(k-1) / (k-1)!) (C / k)
            if k > 1:
                power = _matrix_product(tower, power, (den * k, parts))
                if _is_zero(power):
                    break
            powers.append((i * k, k, power))
    e, e_inv = (_polynomial([(e, sign ** k, x) for e, k, x in powers], p, size)
                for sign in (-1, 1))
    dlog = [[(x, _ONE) for x in row]
            for row in _polynomial([(i - 1, i, c) for i, c in steps], p - 1, size)]
    return e, e_inv, dlog


def _gauged(tower: FieldTower, gauge: tuple, work: list, total: list) -> tuple:
    """``(E G E**-1 + D, E total)`` for the :func:`_step_gauge` ``(E, E**-1,
    D)`` and grids of forms ``G`` and ``total``: three window products, with
    ``D`` one more pair in the :func:`series._sum_of_products` of ``(E G)
    E**-1``."""
    e, e_inv, dlog = gauge
    ew = _form_product(tower, e, work)
    work = [[_sum_of_products(tower, [*zip(ew_row, col), d])
             for col, d in zip(zip(*e_inv), dlog_row)]
            for ew_row, dlog_row in zip(ew, dlog)]
    return work, _form_product(tower, e, total)


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
    up to exponent ``-r + i``.  When every known coefficient commutes with
    ``x`` (:func:`commutes`) there is nothing to gauge away: ``c`` itself
    comes back with the exact identity and no corrections, before any
    elimination.

    One elimination of ``ad(x)`` gives ``K`` and ``S``, and one inverse of
    the n²-by-n² matrix with columns ``K`` then ``ad(lead) S`` gives the map
    a step applies: the last ``len(S)`` rows of that inverse read off the
    ``b`` of a coefficient's component ``ad(lead)(S b)``, so
    ``C_i = -S b`` and ``step = -S . rows``.  ``C_i = 0`` exactly when
    ``b = 0``, because the columns of ``S`` are independent.  If the
    inverse does not exist, ``x`` does not fit the lead.

    A step needs no gauge: ``E**-1 = exp(u**i C_i)`` and
    ``(dE/du) E**-1 = -i u**(i-1) C_i`` in closed form.  So with
    ``p = prec + r`` a head step ``i < h = ceil(p / 2)`` sets
    ``G <- E G E**-1 + i u**(i-1) C_i`` (the last term known below
    ``p - 1``) and ``total <- E total``, where ``E`` and ``E**-1`` are known
    below ``p`` and come from one list of the powers of ``C_i``.  The tail
    steps ``i >= h`` commute modulo ``u**p``: every product of two of their
    terms lies past the window, and a tail step changes only offsets at or
    above ``h``, so the coefficient a tail step ``j`` sees is ``W_j``, the
    one at offset ``j`` after the head, less ``[C_i, W_(j-i)]`` for the tail
    steps ``i < j``, plus ``i C_i`` for the ``i`` with ``i - 1 = -r + j``:
    one product of the constant blocks ``[I, C_i.., W_(j-i)..]`` and
    ``[W_j; -W_(j-i)..; C_i..]``.  The whole tail is then one gauge, ``E = I
    - sum(u**i C_i)``, ``E**-1 = I + sum(u**i C_i)`` and ``D = sum(i
    u**(i-1) C_i)`` (:func:`_step_gauge`), three window products in all.
    Every coefficient and precision is the one the general gauge
    ``E G E**-1 - (dE/du) E**-1`` of every step in turn would give.

    The loop builds no series and no field elements: ``G`` and ``total``
    are grids of :func:`series._integral` forms, every window product is one
    :func:`series._form_product`, and ``D`` is one more pair in the sum of
    products of ``(E G) E**-1`` (:func:`_gauged`).  ``step``, each
    ``C_i`` and its powers are ``(den, parts)`` matrices multiplied by
    :func:`series._matrix_product`; a step reads its coefficient column off
    the forms (:func:`_coefficients`), and an all-zero column takes no
    product.  The final check that no ``ad(lead) S`` component is left is
    one product of ``rows`` with the columns of every exponent above the
    lead.  The two matrices are built once, after the loop, from their
    forms, also when no step was taken.
    """
    if c.prec is INF:
        raise DomainViolation(
            "coefficient normalization needs a truncated connection; "
            "truncate to a working precision first"
        )
    n = c.size
    r = -c.valuation
    if r < 2:
        raise DomainViolation("coefficient normalization requires a pole of order >= 2")
    lead = c.leading()
    if commutes(c, x):
        return NormalizationRecord(c, LaurentMatrix.identity(c.tower, n, c.ram))
    s_prec = c.prec
    kernel, image = linalg.kernel_and_image(linalg.ad_matrix(x))
    source = linalg.transpose(image)
    moved = linalg.mat_mul(linalg.ad_matrix(lead), source)
    try:
        rows = linalg.inverse([[v[k] for v in kernel] + row
                               for k, row in enumerate(moved)])[len(kernel):]
    except NotInvertible:
        raise DomainViolation("ker ad(x) and ad(lead)(im ad(x)) do not span gl_n") from None

    p = s_prec + r
    ram = c.ram
    tower = common_tower(c.tower, common_context(rows))
    size = tower.sizes[-1]
    rows = _matrix_form(rows)
    step = _matrix_product(tower, _matrix_form(linalg.mat_neg(source)), rows)
    work = _forms(c.matrix.entries, ram, size)
    total = [[_ONE if a == b else None for b in range(n)] for a in range(n)]
    corrections = []
    h = (p + 1) // 2
    for i in range(1, h):
        column = _coefficients(work, [-r + i], size)
        if _is_zero(column):
            continue
        c_col = _matrix_product(tower, step, column)
        if _is_zero(c_col):
            continue
        c_form = _square(c_col, 0, n)
        work, total = _gauged(tower, _step_gauge(tower, [(i, c_form)], p), work, total)
        corrections.append((i, c_form))
    # the tail: step j sees the coefficient at offset j of the connection
    # after the head, less the brackets [C_i, W_(j-i)] of the tail steps
    # before it, plus the i C_i that lands there
    offsets = _coefficients(work, range(1 - r, p - r), size)
    w = [None] + [_square(offsets, k, n) for k in range(p - 1)]  # w[k] at offset k
    one, tail = _identity(n), {}
    for j in range(h, p):
        left, right = [(1, one)], [(1, w[j])]
        for i, c_i in tail.items():
            left += [(1, c_i), (1, w[j - i])]
            right += [(-1, w[j - i]), (1, c_i)]
        if j - r + 1 in tail:
            left.append((1, one))
            right.append((j - r + 1, tail[j - r + 1]))
        coefficient = w[j] if len(left) == 1 else _matrix_product(
            tower, _joined(left, True), _joined(right, False))
        column = (coefficient[0], {pos: [[v] for row in m for v in row]
                                   for pos, m in coefficient[1].items()})
        if _is_zero(column):
            continue
        c_col = _matrix_product(tower, step, column)
        if _is_zero(c_col):
            continue
        tail[j] = _square(c_col, 0, n)
        corrections.append((j, tail[j]))
    if tail:
        work, total = _gauged(tower, _step_gauge(tower, list(tail.items()), p), work, total)
    matrix, total = _matrix(tower, ram, work), _matrix(tower, ram, total)
    if matrix.prec != s_prec or matrix.valuation != -r:
        raise EngineError("normalization changed the precision or the pole order")
    _, leftover = _matrix_product(tower, rows, _coefficients(work, range(1 - r, s_prec), size))
    left = [j for m in leftover.values() for row in m for j, x in enumerate(row) if x]
    if left:
        raise EngineError(
            f"coefficient at offset {min(left) + 1} still has a component in the "
            "complement after normalization"
        )
    return NormalizationRecord(Connection(matrix), total, corrections)


def commutes(c: Connection, x: Sequence[Sequence[FieldElement]]) -> bool:
    """Whether ``x G == G x`` on the known window, for a constant ``x``.

    Then every coefficient already lies in ``K = ker ad(x)``, and
    :func:`sibuya_normalize` against ``x`` returns ``c`` with the exact
    identity before any elimination.  It is one
    :func:`series._matrix_product` of ``ad(x)`` with the columns of every
    known exponent (:func:`_coefficients`)."""
    tower = common_tower(c.tower, common_context(x))
    size = tower.sizes[-1]
    columns = _coefficients(_forms(c.matrix.entries, c.ram, size),
                            [e for e in c.matrix.support() if e < c.prec], size)
    return _is_zero(_matrix_product(tower, _matrix_form(linalg.ad_matrix(x)), columns))


# ---------------------------------------------------------------------------
# eigenvalue block splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    """The diagonal blocks of ``c.gauge(transform)``, their sizes, and the
    constant ``transform``."""

    blocks: list
    sizes: list
    transform: LaurentMatrix


def _coprime_factors(m_poly: list, tower: FieldTower) -> list:
    """Split a squarefree monic polynomial over ``tower`` into monic coprime
    factors: one linear factor per rational root, plus whatever is left."""
    factors = []
    rest = list(m_poly)
    for theta in rational_roots(rest):
        lin = [_rational(-theta), _UNIT]
        rest, rem = _poly_divmod(tower, rest, lin)
        if rem:  # pragma: no cover
            raise EngineError("verified rational root failed to divide")
        factors.append(lin)
    if len(rest) >= 2:
        factors.append(rest)
    return factors


def _apply_hints(factors: list, hints) -> list:
    """Replace factors with remembered factorizations, repeatedly, each
    looked up by ``tuple(factor)``: the ``exc.tower.levels[exc.level - 1]``
    of a ``ZeroDivisorSplit`` raised after adjoining it."""
    if not hints:
        return factors
    out = []
    queue = list(factors)
    while queue:
        q = queue.pop(0)
        known = hints.get(tuple(q)) if len(q) >= 3 else None
        if known is None:
            out.append(q)
        else:
            queue.extend(known)
    return out


def eigen_block_split(c: Connection, jc: JordanPair, hints=None) -> SplitResult:
    """Split ``c`` along the eigenvalue clusters of the semisimple part
    ``s = jc.semisimple`` of its lead.

    Every known coefficient of ``c`` must commute with ``s`` (which is what
    :func:`sibuya_normalize` against ``s`` guarantees), so a constant base
    change to the kernels of the coprime factors of ``s``'s minimal
    polynomial ``jc.minpoly`` makes ``c`` block diagonal.  That change is
    ``P**-1`` for the matrix ``P`` whose columns are kernel bases.  A block
    whose lead is the block of ``c``'s lead has, as its lead's semisimple
    part, the block of ``s``, with which every coefficient of the block
    commutes (see :func:`commutes`).

    If the minimal polynomial has no rational factorization at all, one
    algebraic root is adjoined to the tower; a degree-2-or-more cofactor is
    left unsplit for later rounds rather than forcing a full splitting field
    now.  Divisions behind the elimination may discover that an adjoined
    polynomial factors (``ZeroDivisorSplit``); the caller owns the retry.
    ``hints`` maps the level such a split reports, ``tuple(q)`` for the
    adjoined ``q``, to the pair of factors it found, each a tuple of forms; a
    factor found there is split without any adjunction, which is how a retry
    avoids re-raising.  The adjunction is the one place that builds elements
    of a polynomial.
    """
    n = c.size
    if len(jc.minpoly) == 2:
        raise ScalarLeadingTerm("the semisimple part is scalar; nothing to split")
    s = jc.semisimple
    tower = common_tower(common_context(s), c.tower)
    factors = _apply_hints(_coprime_factors(jc.minpoly, tower), hints)
    if len(factors) == 1:
        ext = tower.extend([FieldElement(tower, f) for f in factors[0]])
        lin = [(-ext.gen()).form, _UNIT]
        quot, rem = _poly_divmod(ext, factors[0], lin)
        if rem:  # pragma: no cover
            raise EngineError("adjoined root failed to divide its own polynomial")
        factors = [lin, quot]
        tower = ext
    s = [[tower.coerce(x) for x in row] for row in s]  # the factors' tower
    kernels = [linalg.nullspace(linalg.poly_at_matrix(q, s)) for q in factors]
    sizes = [len(k) for k in kernels]
    if sum(sizes) != n or any(sz == 0 for sz in sizes):
        raise EngineError("eigenvalue clusters do not fill the space")
    p_mat = linalg.transpose([v for k in kernels for v in k])
    g = LaurentMatrix.constant(tower, linalg.inverse(p_mat), c.ram)
    return SplitResult(c.gauge(g).block_split(sizes), sizes, g)
