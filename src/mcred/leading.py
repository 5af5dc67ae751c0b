"""Leading-term analysis for connections with a pole of order >= 2.

Three tools live here:

* :func:`jordan_chevalley` -- the exact semisimple/nilpotent splitting of a
  scalar matrix, by Newton iteration against the squarefree part of its
  characteristic polynomial (quadratic convergence, so the iteration count
  is logarithmic in the matrix size).

* :func:`sibuya_normalize` -- gauge away, order by order, the components of
  the higher coefficients that lie in a chosen complement of a kernel
  subspace adapted to the leading coefficient.  Step ``i`` cancels that
  component at offset ``i`` by ``ad(lead)(C_i)``; the steps of each dyadic
  block of offsets ``[k, 2k)``, and of the upper half of the window,
  commute below the block's end and take one gauge ``I - sum(u**i C_i)``.
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
                     _matrix_form, _matrix_product, _sum_of_products, _truncated)


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
    of ``connection``.  The gauge is the product, later blocks on the left,
    of one ``I - sum(u**i C_i)`` over the steps of each block of
    :func:`sibuya_normalize`, so only the first block's ``C_i`` are those
    of the exponentials ``exp(-u**i C_i)`` taken one step at a time."""

    connection: Connection
    gauge: LaurentMatrix
    corrections: list = dataclass_field(default_factory=list)


def _coefficients(forms: list, exps, size: int) -> tuple:
    """The ``(den, parts)`` matrix whose column ``j`` holds the row-major
    coefficients at ``u**exps[j]`` of a grid of forms.  A gauge never lowers
    an entry's precision below the connection's, so every ``e`` a block
    reads is known."""
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
        scale = sign * (den // d)
        for pos in sorted(parts):
            for entries, values in zip(grid, parts[pos]):
                for entry, v in zip(entries, values):
                    if v:
                        entry.append((e * size + pos, v * scale))
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
    scales = [k * (den // d) for k, (d, _) in blocks]
    n = len(blocks[0][1][1][0])
    zero, parts = [[0] * n for _ in range(n)], {}
    for pos in {q for _, (_, ps) in blocks for q in ps}:
        mats = [[[scale * v for v in row] for row in ps[pos]] if pos in ps else zero
                for scale, (_, (_, ps)) in zip(scales, blocks)]
        parts[pos] = [sum(rows, []) for rows in zip(*mats)] if across else sum(mats, [])
    return den, parts


def _block_gauge(tower: FieldTower, steps: list, p: int) -> tuple:
    """``(E, E**-1, X')`` as grids of forms for the gauge ``E = I - X`` of
    ``steps``, a list of ``(i, C_i)`` in increasing ``i`` with each ``C_i`` a
    ``(den, parts)`` matrix, ``X = sum(u**i C_i)`` and ``X' = dX/du``: ``E``
    and ``E**-1 = sum(X**m)`` modulo ``u**p``, every entry known below
    ``p``, and ``X'`` known below ``p - 1``.  One step ``(i, C)`` takes
    ``E**-1 = sum(u**(i m) C**m)``, each power one
    :func:`series._matrix_product` from the last.  Several steps, the least
    ``k``, take ``E**-1 = (I + X)(I + X**2)(I + X**4)...``: ``X**(2 l)`` is
    the window product of ``X**l``, of valuation at least ``l k`` and so cut
    below ``p - l k``, with itself, and each factor is one more window
    product, until ``X**(2 l)`` vanishes modulo ``u**p``."""
    size, n = tower.sizes[-1], len(steps[0][1][1][0])
    one = (0, 1, _identity(n))
    e, inverse = (_polynomial([one] + [(i, sign, c) for i, c in steps], p, size)
                  for sign in (-1, 1))
    derivative = _polynomial([(i - 1, i, c) for i, c in steps], p - 1, size)
    low, c = steps[0]
    if len(steps) == 1:
        powers = [one, (low, 1, c)]
        while powers[-1][0] + low < p and not _is_zero(powers[-1][2]):
            powers.append((powers[-1][0] + low, 1, _matrix_product(tower, powers[-1][2], c)))
        return e, _polynomial(powers, p, size), derivative
    x = _polynomial([(i, 1, c) for i, c in steps], p, size)
    while 2 * low < p and any(f[3] for row in x for f in row):
        x = [[_truncated(f, p - low, size) for f in row] for row in x]
        x, low = _form_product(tower, x, x), 2 * low
        cols = list(zip(*x))
        inverse = [[_sum_of_products(tower, [(v, _ONE), *zip(row, col)])
                    for v, col in zip(row, cols)] for row in inverse]
    return e, inverse, derivative


def _gauged(tower: FieldTower, gauge: tuple, work: list, total: list) -> tuple:
    """``((E G + X') E**-1, E total)`` for the :func:`_block_gauge` ``(E,
    E**-1, X')`` and grids of forms ``G`` and ``total``: three window
    products, with ``X'`` one more pair in the
    :func:`series._sum_of_products` of ``E G``."""
    e, e_inv, derivative = gauge
    cols = list(zip(*work))
    moved = [[_sum_of_products(tower, [*zip(e_row, col), (d, _ONE)])
              for col, d in zip(cols, d_row)] for e_row, d_row in zip(e, derivative)]
    return _form_product(tower, moved, e_inv), _form_product(tower, e, total)


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
    ``ker ad_e``).  Step ``i`` takes the ``C_i`` whose ``ad(lead)(C_i)``
    cancels the ``span(ad(lead) S)`` component of the coefficient at offset
    ``i``, exponent ``-r + i``.  When every known coefficient commutes with
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

    With ``p = prec + r`` the offsets ``[1, p)`` run in blocks ``[1, 2)``,
    ``[2, 4)``, ``[4, 8)`` and so on up to ``h = ceil(p / 2)``, then ``[h,
    p)``, so a block ``[k, l)`` has ``l <= 2 k``.  Below offset ``2 k`` the
    steps of a block commute: every product of two of their terms, and of a
    step with the derivative of another, lands at ``2 k`` or above because
    ``r >= 2``.  So step ``j`` sees ``W_j``, the coefficient at offset ``j``
    before the block, less ``[C_i, W_(j-i)]`` for the block's steps ``i <
    j``, plus ``i C_i`` for the ``i`` with ``i - 1 = -r + j``: one product
    of the constant blocks ``[I, C_i.., W_(j-i)..]`` and ``[W_j; -W_(j-i)..;
    C_i..]``.  The whole block is then one gauge ``E = I - X``, ``X =
    sum(u**i C_i)`` (:func:`_block_gauge`): ``G <- (E G + X') E**-1`` and
    ``total <- E total``, three window products.  It moves each coefficient
    of the block as its steps do, touches nothing below the block and keeps
    the precision.  Above ``2 k`` it differs from the exponentials
    ``exp(-u**i C_i)`` of the steps in turn, except in the tail ``[h, p)``,
    where ``X**2`` vanishes modulo ``u**p`` and both give the same bytes.

    The loop builds no series and no field elements: ``G`` and ``total``
    are grids of :func:`series._integral` forms multiplied by
    :func:`series._form_product`, and ``step``, each ``C_i`` and the
    coefficients a block reads off the forms (:func:`_coefficients`) are
    ``(den, parts)`` matrices multiplied by :func:`series._matrix_product`;
    an all-zero column takes no product.  The final check that no ``ad(lead)
    S`` component is left is one product of ``rows`` with the columns of
    every exponent above the lead.  The two matrices are built once, after
    the loop, from their forms, also when no step was taken.
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
    one, corrections = _identity(n), []
    h, low = (p + 1) // 2, 1
    while low < p:
        high = min(2 * low, h) if low < h else p
        # step j of the block sees the coefficient at offset j before the
        # block, less the brackets [C_i, W_(j-i)] of the block's steps before
        # it, plus the i C_i that lands there
        offsets = _coefficients(work, range(1 - r, high - r), size)
        w = [None] + [_square(offsets, k, n) for k in range(high - 1)]  # w[k] at offset k
        block = {}
        for j in range(low, high):
            left, right = [(1, one)], [(1, w[j])]
            for i, c_i in block.items():
                left += [(1, c_i), (1, w[j - i])]
                right += [(-1, w[j - i]), (1, c_i)]
            if j - r + 1 in block:
                left.append((1, one))
                right.append((j - r + 1, block[j - r + 1]))
            coefficient = w[j] if len(left) == 1 else _matrix_product(
                tower, _joined(left, True), _joined(right, False))
            column = (coefficient[0], {pos: [[v] for row in m for v in row]
                                       for pos, m in coefficient[1].items()})
            if _is_zero(column):
                continue
            c_col = _matrix_product(tower, step, column)
            if _is_zero(c_col):
                continue
            block[j] = _square(c_col, 0, n)
            corrections.append((j, block[j]))
        if block:
            work, total = _gauged(tower, _block_gauge(tower, list(block.items()), p),
                                  work, total)
        low = high
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
