"""Exact linear algebra over field-tower scalars.

Matrices are plain ``list[list[FieldElement]]`` in row-major order.  The
entry-wise loops (``mat_add``, ``mat_neg``, ``mat_scale``, ``mat_eq``,
``transpose``) use only the entries' own operators, so they are
ring-generic: :class:`matrices.LaurentMatrix` runs them on its series.
:func:`mat_mul`, :func:`charpoly` and :func:`poly_at_matrix` are no
loops: each converts its matrices once to ``(den, parts)`` integer matrices
and multiplies them by :func:`series._matrix_product`.  Their polynomials
are lists of coefficient forms (:mod:`mcred.field`) in their matrix's tower.
All eliminations use the first nonzero entry as pivot, so
the results are deterministic functions of the input.  Elimination runs on
the entries' forms at the deepest tower among them
(:func:`field.common_context`), and touches only the nonzero columns of
each pivot row.
Where only a rank or a pivot list leaves the elimination,
:func:`pivot_columns` alone picks how to eliminate.  It takes band rows
``(lo, values)``: Python ints, and elements when every one sits at level 0
(it reads their levels itself) once each band is cleared of its
denominators, go to the integer kernel :func:`integer_pivot_columns`
(fraction-free, one row update ``a·row − b·pivot``, rows filed by leading
column, no back-substitution); bands with an element above level 0 are
expanded to dense rows over their common tower for ``rref``.  :func:`rank`
hands it ``(0, row)`` bands, and :mod:`mcred.cohomology` its
:func:`cohomology._lattice` systems.  ``rref``
keeps the callers whose reduced vectors are output (``nullspace``,
``kernel_and_image``, ``inverse``).
Division by a zero divisor inside an algebraic extension raises
``ZeroDivisorSplit`` from the scalar layer; the reduction driver catches it
and restarts with the discovered factorization, everyone else lets it
propagate.

Determinants and adjugates of series matrices are not here:
:meth:`matrices.LaurentMatrix.inverse` expands its cofactors division-free on
the product kernel's integer forms.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Sequence

from .errors import DomainViolation, LinearSolveFailed, NotInvertible
from .field import FieldElement, FieldTower, _combine, _inv, _mul, _reduced, common_context
from .series import _elements, _matrix_form, _matrix_product

Matrix = list  # list[list[FieldElement]]
Vector = list  # list[FieldElement]


# ---------------------------------------------------------------------------
# construction and shape
# ---------------------------------------------------------------------------


def mat_shape(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise DomainViolation("ragged matrix")
    return rows, cols


def zeros(tower: FieldTower, rows: int, cols: int) -> Matrix:
    return [[tower.zero() for _ in range(cols)] for _ in range(rows)]


def identity(tower: FieldTower, n: int) -> Matrix:
    m = zeros(tower, n, n)
    for i in range(n):
        m[i][i] = tower.one()
    return m


def transpose(m: Matrix) -> Matrix:
    rows, cols = mat_shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DomainViolation("matrix shapes differ in addition")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DomainViolation("matrix shapes differ in subtraction")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Matrix) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """``a b`` by :func:`series._matrix_product`, over the operands' common
    tower (:func:`field.common_context`)."""
    if mat_shape(a)[1] != mat_shape(b)[0]:
        raise DomainViolation("matrix shapes incompatible in product")
    tower = common_context([*a, *b])
    return _elements(tower, _matrix_product(tower, _matrix_form(a), _matrix_form(b)))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if mat_shape(a) != mat_shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting picks the first row with a nonzero entry, so over a fixed tower
    the output is deterministic.  Every entry comes back over the matrix's
    common tower.
    """
    rows, cols = mat_shape(m)
    if not rows or not cols:
        return [list(row) for row in m], []
    tower = common_context(m)
    r = [[x.form for x in row] for row in m]
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        pivot_row = next((i for i in range(lead, rows) if r[i][col][1]), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        prow = r[lead]
        inv = _inv(tower, prow[col])
        # only the pivot row's nonzero columns can change the other rows
        support = [j for j in range(col, cols) if prow[j][1]]
        for j in support:
            prow[j] = _mul(tower, prow[j], inv)
        for i, row in enumerate(r):
            f = row[col]
            if i != lead and f[1]:
                for j in support:
                    row[j] = _combine(row[j], _mul(tower, f, prow[j]), -1)
        pivots.append(col)
        lead += 1
    return [[FieldElement(tower, x) for x in row] for row in r], pivots


def pivot_columns(bands: list) -> list[int]:
    """The pivot columns of a matrix given as band rows (row ``(lo, values)``
    holds ``values`` from column ``lo`` on and zero elsewhere): ``rref``'s
    pivot list of the dense matrix, since the column rank profile does not
    depend on how the elimination runs.

    Bands of Python ints go straight to :func:`integer_pivot_columns`, and so
    do bands of elements at level 0, each cleared of its denominators once.
    Over towers (level > 0) the bands are padded to the widest one (trailing
    zero columns never pivot) for :func:`rref`.
    """
    if type(next((v[0] for _, v in bands if v), 0)) is int:
        return integer_pivot_columns(bands)
    if any(x.level for _, v in bands for x in v):
        width = max(lo + len(v) for lo, v in bands)
        zero = common_context([v for _, v in bands]).zero()
        return rref([[zero] * lo + v + [zero] * (width - lo - len(v)) for lo, v in bands])[1]
    cleared = []
    for lo, values in bands:
        den = math.lcm(*[x.form[0] for x in values])
        # a rational's terms are empty or its one numerator at position 0
        cleared.append((lo, [sum(n for _, n in x.form[1]) * (den // x.form[0])
                             for x in values]))
    return integer_pivot_columns(cleared)


def integer_pivot_columns(bands: list) -> list[int]:
    """The pivot columns of a matrix of Python ints given as band rows: row
    ``(lo, values)`` holds ``values`` in the columns from ``lo`` on and zero
    elsewhere.

    Each row is trimmed to its nonzero run and filed under its leading
    column.  At each column the first row filed there is the pivot; every
    other row there becomes ``a·row − b·pivot`` over their common run, with
    ``a, b = pv/g, f/g`` (``g = gcd(pv, f)``, ``a > 0``), is divided by its
    content and filed again under its new leading column.  Rows filed under
    other columns are zero in this one and are not touched.  The result is
    an echelon form of the same row space, so the pivots are the column rank
    profile, whichever row is the pivot; there is no back-substitution.
    """
    filed: dict[int, list] = {}
    for lo, values in bands:
        lead, values = _trimmed(values)
        if values:
            filed.setdefault(lo + lead, []).append(values)
    pivots: list[int] = []
    col = min(filed, default=0)
    while filed:
        rows = filed.pop(col, None)
        if rows:
            # a > 0: a negative pivot lead moves its sign onto the pivot's tail
            pv, tail = rows[0][0], rows[0][1:]
            if pv < 0:
                pv, tail = -pv, [-y for y in tail]
            for row in rows[1:]:
                g = math.gcd(pv, row[0])
                a, b = pv // g, row[0] // g
                # column col cancels; the rest of the common run, then the
                # part of the longer row that overhangs the shorter
                new = [a * x - b * y for x, y in zip(islice(row, 1, None), tail)]
                if len(row) > len(tail) + 1:
                    new += [a * x for x in row[len(tail) + 1:]]
                if len(row) <= len(tail):
                    new += [-b * y for y in tail[len(row) - 1:]]
                lead, new = _trimmed(new)
                if new:
                    content = math.gcd(*new)
                    if content > 1:
                        new = [x // content for x in new]
                    filed.setdefault(col + 1 + lead, []).append(new)
            pivots.append(col)
        col += 1
    return pivots


def _trimmed(values: list) -> tuple[int, list]:
    """``(offset, run)``: the nonzero run of ``values`` and where it starts;
    an all-zero list gives ``(0, [])``."""
    if values and values[0] and values[-1]:
        return 0, values
    start = 0
    for x in values:
        if x:
            break
        start += 1
    else:
        return 0, []
    stop = len(values)
    while not values[stop - 1]:
        stop -= 1
    return start, values[start:stop]


def rank(m: Matrix) -> int:
    return len(pivot_columns([(0, row) for row in m]))


def _kernel(r: Matrix, pivots: list[int], cols: int, tower: FieldTower) -> list[Vector]:
    """The right kernel from a reduced row echelon form: the basis vector for
    free column ``f`` has a 1 in slot ``f`` and the negated reduced column
    above the pivots, so the basis is canonical."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [tower.zero() for _ in range(cols)]
        v[f] = tower.one()
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column (see :func:`_kernel`)."""
    r, pivots = rref(m)
    return _kernel(r, pivots, mat_shape(m)[1], common_context(m))


def kernel_and_image(m: Matrix) -> tuple[list[Vector], list[Vector]]:
    """The right kernel of ``m`` (as :func:`nullspace` gives it) and the pivot
    columns of ``m``, a canonical basis of its image, from one elimination."""
    r, pivots = rref(m)
    return (_kernel(r, pivots, mat_shape(m)[1], common_context(m)),
            [[row[p] for row in m] for p in pivots])


# Kept because the benchmark tracer wraps it by name and the _old_sibuya test oracle uses it.
def solve(a: Matrix, b: Vector) -> Vector:
    """One solution of ``a x = b`` with every free variable set to zero.

    Raises ``LinearSolveFailed`` when the system is inconsistent.
    """
    rows, cols = mat_shape(a)
    if len(b) != rows:
        raise DomainViolation("right-hand side has the wrong length")
    tower = common_context(a)
    aug = [list(a[i]) + [tower.coerce(b[i])] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        raise LinearSolveFailed("inconsistent linear system")
    x = [tower.zero() for _ in range(cols)]
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def inverse(m: Matrix) -> Matrix:
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("inverse of a non-square matrix")
    eye = identity(common_context(m), n)
    aug = [list(row) + eye_row for row, eye_row in zip(m, eye)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in r]


# ---------------------------------------------------------------------------
# characteristic polynomial and polynomial evaluation
# ---------------------------------------------------------------------------


def _plus_scalar(form: tuple, den: int, coords: list) -> tuple:
    """``m + x I`` for the ``(den, parts)`` matrix ``form`` of a square ``m``
    and the scalar ``x`` with coordinates ``num / den`` at ``(position, num)``."""
    total = math.lcm(form[0], den)
    parts = {p: [[v * (total // form[0]) for v in row] for row in m] for p, m in form[1].items()}
    for p, num in coords:
        for i, row in enumerate(parts.setdefault(p, [[0] * len(parts[0]) for _ in parts[0]])):
            row[i] += num * (total // den)
    return total, parts


def charpoly(m: Matrix) -> list[tuple]:
    """The forms of the coefficients of ``det(x I - m)``, ascending, monic of
    degree ``n``, over ``m``'s tower (:func:`field.common_context`).

    Faddeev-LeVerrier: only divisions by the integers ``1..n`` occur, which
    are exact in characteristic zero.  The loop runs on ``(den, parts)``
    matrices: ``m`` converts once, each ``M_k = m (M_(k-1) + c I)`` is one
    :func:`series._matrix_product`, and each ``c = -trace(M_k) / k`` is read
    off its diagonals.
    """
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("characteristic polynomial of a non-square matrix")
    tower = common_context(m)
    mf, am = _matrix_form(m), (1, {0: [[0] * n for _ in range(n)]})
    coeffs = [(1, [(0, 1)])]  # c_n, c_(n-1), ... as (den, [(position, numerator)])
    for k in range(1, n + 1):
        am = _matrix_product(tower, mf, _plus_scalar(am, *coeffs[-1]))
        coeffs.append((am[0] * k, [(p, -sum(x[i][i] for i in range(n)))
                                   for p, x in am[1].items()]))
    return [_reduced(den, sorted((p, v) for p, v in coords if v))
            for den, coords in reversed(coeffs)]


def poly_at_matrix(coeffs: Sequence[tuple], m: Matrix) -> Matrix:
    """Evaluate a scalar polynomial, the forms of its coefficients ascending,
    at a matrix over whose tower they lie, by Horner's rule on ``(den,
    parts)`` matrices."""
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("polynomial evaluation at a non-square matrix")
    tower = common_context(m)
    mf, out = _matrix_form(m), (1, {0: [[0] * n for _ in range(n)]})
    for ck in reversed(coeffs):
        out = _plus_scalar(_matrix_product(tower, out, mf), *ck)
    return _elements(tower, out)


# ---------------------------------------------------------------------------
# the adjoint action
# ---------------------------------------------------------------------------


def ad_matrix(m: Matrix) -> Matrix:
    """Matrix of ``X -> m X - X m`` on row-major coordinates.

    Column ``a*n + b`` is the flattened ``[m, E_ab]``:  ``+m[i][a]`` in row
    ``i*n + b`` and ``-m[b][j]`` in row ``a*n + j``.
    """
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("adjoint action of a non-square matrix")
    tower = common_context(m)
    size = n * n
    out = zeros(tower, size, size)
    for a in range(n):
        for b in range(n):
            col = a * n + b
            for i in range(n):
                out[i * n + b][col] = out[i * n + b][col] + m[i][a]
            for j in range(n):
                out[a * n + j][col] = out[a * n + j][col] - m[b][j]
    return out
