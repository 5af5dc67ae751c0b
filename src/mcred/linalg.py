"""Exact linear algebra over field-tower scalars.

Matrices are plain ``list[list[FieldElement]]`` in row-major order.  The
entry-wise loops (``mat_add``, ``mat_neg``, ``mat_scale``, ``mat_eq``,
``trace``, ``transpose``) use only the entries' own operators, so they are
ring-generic: :class:`matrices.LaurentMatrix` runs them on its series.
:func:`mat_mul` is no loop: it runs the series product kernel on constant
forms (:func:`series._form_product`), one fold per entry, for every
constant product here and in :mod:`mcred.leading` and :mod:`mcred.sl2`.
All eliminations use the first nonzero entry as pivot, so
the results are deterministic functions of the input.  Elimination runs on
raw payloads at one ``(tower, level)`` per matrix, the deepest tower and
highest level among its entries as :func:`field.common_context` finds them,
and touches only the nonzero columns of each pivot row.
Division by a zero divisor inside an algebraic extension raises
``ZeroDivisorSplit`` from the scalar layer; the reduction driver catches it
and restarts with the discovered factorization, everyone else lets it
propagate.

Determinants and adjugates of series matrices are not here:
:meth:`matrices.LaurentMatrix.inverse` expands its cofactors division-free on
the product kernel's integer forms.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainViolation, LinearSolveFailed, NotInvertible
from .field import FieldElement, FieldTower, common_context
from .field import _inv, _lift_payload, _mul, _payload_is_zero, _sub
from .series import _constant_forms, _constants, _form_product

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


def mat_copy(m: Matrix) -> Matrix:
    return [list(row) for row in m]


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
    """``a b`` on the product kernel, every entry at the operands' common
    tower and top level (:func:`field.common_context`)."""
    if mat_shape(a)[1] != mat_shape(b)[0]:
        raise DomainViolation("matrix shapes incompatible in product")
    tower, level = common_context([*a, *b])
    return _constants(tower, level,
                      _form_product(tower, _constant_forms(a), _constant_forms(b)))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if mat_shape(a) != mat_shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def trace(a: Matrix):
    n, c = mat_shape(a)
    if n != c:
        raise DomainViolation("trace of a non-square matrix")
    return sum((a[i][i] for i in range(1, n)), a[0][0])


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting picks the first row with a nonzero entry, so over a fixed tower
    the output is deterministic.  Every entry comes back at the matrix's
    common tower and top level.
    """
    rows, cols = mat_shape(m)
    if not rows or not cols:
        return mat_copy(m), []
    tower, level = common_context(m)
    r = [[_lift_payload(tower, x.level, level, x.payload) for x in row] for row in m]
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        pivot_row = next(
            (i for i in range(lead, rows) if not _payload_is_zero(r[i][col])), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        prow = r[lead]
        inv = _inv(tower, level, prow[col])
        # the lattice matrices are banded: only the pivot row's nonzero
        # columns can change the other rows
        support = [j for j in range(col, cols) if not _payload_is_zero(prow[j])]
        for j in support:
            prow[j] = _mul(tower, level, prow[j], inv)
        for i, row in enumerate(r):
            f = row[col]
            if i != lead and not _payload_is_zero(f):
                for j in support:
                    row[j] = _sub(tower, level, row[j], _mul(tower, level, f, prow[j]))
        pivots.append(col)
        lead += 1
    return [[FieldElement(tower, level, p) for p in row] for row in r], pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column.

    The basis vector for free column ``f`` has a 1 in slot ``f`` and the
    negated reduced column above the pivots, so the basis is canonical.
    """
    rows, cols = mat_shape(m)
    tower, _ = common_context(m)
    r, pivots = rref(m)
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


# Kept because the benchmark tracer wraps it by name and the _old_sibuya test oracle uses it.
def solve(a: Matrix, b: Vector) -> Vector:
    """One solution of ``a x = b`` with every free variable set to zero.

    Raises ``LinearSolveFailed`` when the system is inconsistent.
    """
    rows, cols = mat_shape(a)
    if len(b) != rows:
        raise DomainViolation("right-hand side has the wrong length")
    tower, _ = common_context(a)
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
    tower, _ = common_context(m)
    aug = [list(m[i]) + identity(tower, n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in r]


def column_space_basis(m: Matrix) -> list[Vector]:
    """The pivot columns of ``m`` (a canonical basis of the image)."""
    _, pivots = rref(m)
    return [[row[p] for row in m] for p in pivots]


# ---------------------------------------------------------------------------
# characteristic polynomial and polynomial evaluation
# ---------------------------------------------------------------------------


def charpoly(m: Matrix) -> list[FieldElement]:
    """Coefficients of ``det(x I - m)``, ascending, monic of degree ``n``.

    Faddeev-LeVerrier: only divisions by the integers ``1..n`` occur, which
    are exact in characteristic zero.
    """
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("characteristic polynomial of a non-square matrix")
    tower, _ = common_context(m)
    coeffs = [tower.zero() for _ in range(n + 1)]
    coeffs[n] = tower.one()
    am = zeros(tower, n, n)  # m M_0, with M_0 = 0
    for k in range(1, n + 1):
        ck = coeffs[n - k + 1]
        for i in range(n):  # M_k = m M_(k-1) + c_(n-k+1) I
            am[i][i] = am[i][i] + ck
        am = mat_mul(m, am)
        coeffs[n - k] = -trace(am) / k
    return coeffs


def poly_at_matrix(coeffs: Sequence[FieldElement], m: Matrix) -> Matrix:
    """Evaluate a scalar polynomial (ascending coefficients) at a matrix."""
    n, c = mat_shape(m)
    if n != c:
        raise DomainViolation("polynomial evaluation at a non-square matrix")
    tower, _ = common_context(m)
    out = zeros(tower, n, n)
    for ck in reversed(list(coeffs)):
        out = mat_mul(out, m)
        for i in range(n):
            out[i][i] = out[i][i] + ck
    return out


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
    tower, _ = common_context(m)
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
