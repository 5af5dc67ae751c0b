import random
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.errors import DomainViolation, NotInvertible, NotNilpotent
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix, matrix_exp
from mcred.series import INF, LaurentSeries

QQ = FieldTower()


def S(coeffs, prec=INF, ram=1):
    return LaurentSeries(QQ, coeffs, prec=prec, ram=ram)


def M(entries, ram=1):
    return LaurentMatrix(QQ, entries, ram=ram)


# The division-free cofactor expansion that ``linalg`` held until
# ``LaurentMatrix.inverse`` moved onto the product kernel's integer forms,
# and the product loop ``linalg.mat_mul`` ran until it did too, kept as
# oracles: they use only the entries' own operators, so they run verbatim on
# field elements and on series.


def _mat_mul(a, b):
    """The entry-by-entry matrix product, each entry summed term by term."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _adjugate(m):
    """Classical adjugate: ``m @ _adjugate(m) == _det(m) * I``."""
    out = []
    for i in range(len(m)):
        row = []
        for j in range(len(m)):
            cof = _det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
            row.append(-cof if (i + j) % 2 else cof)
        out.append(row)
    return out


def test_constructors():
    i3 = LaurentMatrix.identity(QQ, 3)
    assert i3.size == 3 and i3.is_exact()
    c = LaurentMatrix.constant(QQ, [[1, 2], [3, 4]])
    assert c.entry(1, 0).coeff(0).to_fraction() == 3
    d = LaurentMatrix.monomial_diagonal(QQ, [-1, 2])
    assert d.entry(0, 0).support() == [-1]
    assert d.entry(1, 1).support() == [2]
    assert d.entry(0, 1).is_zero()


def test_shape_validation():
    with pytest.raises(DomainViolation):
        M([[S({0: 1})], [S({0: 1}), S({0: 1})]])


def test_ring_operations():
    a = LaurentMatrix.constant(QQ, [[0, 1], [0, 0]])
    b = LaurentMatrix.constant(QQ, [[0, 0], [1, 0]])
    ab = a * b
    assert ab.entry(0, 0).coeff(0).to_fraction() == 1
    assert ab.entry(1, 1).is_zero()
    tr = (a * b - b * a).trace()
    assert tr.is_zero()
    assert (a + b).transpose().coincides_with(a + b)


def test_det_and_inverse_unipotent():
    g = M([[S({0: 1}), S({1: 2})], [S({}), S({0: 1})]])
    assert _det(g.entries).coincides_with(S({0: 1}))
    inv = g.inverse()
    assert (g * inv).coincides_with(LaurentMatrix.identity(QQ, 2))
    assert inv.entry(0, 1).coeff(1).to_fraction() == -2


def test_inverse_requires_cap_for_infinite_series():
    g = M([[S({0: 1, 1: 1})]])     # det = 1 + t, exact
    with pytest.raises(DomainViolation, match="truncate it first"):
        g.inverse()
    inv = g.truncate(4).inverse()
    assert (g * inv - LaurentMatrix.identity(QQ, 1)).is_zero_to_precision()
    with pytest.raises(NotInvertible):
        M([[S({}), S({})], [S({}), S({})]]).inverse()


def test_monomial_diagonal_inverse_is_exact():
    d = LaurentMatrix.monomial_diagonal(QQ, [-2, 3])
    inv = d.inverse()
    assert inv.prec is INF
    assert inv.entry(0, 0).support() == [2]


def test_coeff_matrix_and_from_coeff_map_roundtrip():
    m = M([[S({-1: 1, 2: 5}), S({})], [S({0: 7}), S({1: Fraction(1, 3)})]])
    grid = m.coeff_matrix(-1)
    assert grid[0][0].to_fraction() == 1
    rebuilt = LaurentMatrix.from_coeff_map(
        QQ, {e: m.coeff_matrix(e) for e in m.support()}, m.size)
    assert rebuilt.coincides_with(m)


def test_block_diag_and_submatrix():
    b = LaurentMatrix.constant(QQ, [[2, 0], [0, 3]])
    big = LaurentMatrix.constant(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert big.entry(2, 2).coeff(0).to_fraction() == 3
    assert big.submatrix(range(1, 3), range(1, 3)).coincides_with(b)


def test_scale_and_shift():
    m = LaurentMatrix.constant(QQ, [[1, 0], [0, 1]])
    sh = m.shift(-2)
    assert sh.valuation == -2
    sc = m * S({1: 3})
    assert sc.entry(0, 0).support() == [1]


def test_exp_log_nilpotent_exact():
    n = M([[S({}), S({1: 1})], [S({}), S({})]])
    e = matrix_exp(n)
    assert e.prec is INF
    assert e.entry(0, 1).coeff(1).to_fraction() == 1
    assert e.entry(0, 0).coincides_with(S({0: 1}))


def test_exp_positive_valuation_with_cap():
    x = M([[S({1: 1}), S({})], [S({}), S({1: -1})]])
    e = matrix_exp(x.truncate(4))
    # exp(t) = 1 + t + t^2/2 + t^3/6
    assert e.entry(0, 0).coeff(2).to_fraction() == Fraction(1, 2)
    assert e.entry(1, 1).coeff(3).to_fraction() == Fraction(-1, 6)


def test_exp_demands_positive_valuation():
    with pytest.raises(DomainViolation):
        matrix_exp(LaurentMatrix.constant(QQ, [[1]]).truncate(5))


def _old_exp(xi, prec_cap=None):
    """``matrix_exp`` as it was with separate exact and truncated loops."""
    n = xi.size
    if xi.valuation < 1:
        raise DomainViolation("matrix exponential requires valuation >= 1")
    if xi.is_exact():
        if prec_cap is not None:
            return _old_exp(xi.truncate(prec_cap))
        result = LaurentMatrix.identity(xi.tower, n, xi.ram)
        power = xi
        k = 1
        fact = 1
        while not power.is_zero():
            if k > n:
                raise NotNilpotent("exponential does not terminate")
            result = result + power * Fraction(1, fact)
            k += 1
            fact *= k
            power = power * xi
        return result
    p = xi.prec
    result = LaurentMatrix.identity(xi.tower, n, xi.ram).truncate(p)
    power = xi
    k = 1
    fact = 1
    while k < p and not power.is_zero_to_precision():
        result = result + power * Fraction(1, fact)
        k += 1
        fact *= k
        power = power * xi
    return result.truncate(p)


K2 = QQ.extend([-2, 0, 1])  # adjoin a root of x^2 - 2
K4 = K2.extend([-3, 0, 1])  # then a root of x^2 - 3


def _scalar(rng, tower):
    """A random rational plus a random rational multiple of each adjoined root."""
    x = tower.rational(checks.random_rational(rng))
    for level in range(1, tower.depth + 1):
        x = x + tower.gen(level) * checks.random_rational(rng)
    return x


def _random_argument(rng, tower, n, val, prec, nilpotent=False):
    """A random ``n``-by-``n`` argument of valuation exactly ``val``, known
    below ``prec``; strictly upper triangular when ``nilpotent``."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if nilpotent and j <= i:
                row.append(LaurentSeries.zero(tower))
                continue
            top = prec if prec is not INF else val + 3
            coeffs = {e: _scalar(rng, tower) for e in range(val, top) if rng.random() < 0.6}
            if (i, j) == (0, n - 1):
                coeffs[val] = tower.one()
            row.append(LaurentSeries(tower, coeffs, prec))
        rows.append(row)
    return LaurentMatrix(tower, rows)


def _same(a, b):
    return a == b and (serialize.dumps(serialize.encode_matrix(a))
                       == serialize.dumps(serialize.encode_matrix(b)))


@pytest.mark.parametrize("tower", [QQ, K2], ids=["depth0", "depth1"])
@pytest.mark.parametrize("val", [1, 2, 3])
def test_exp_log_match_the_two_branch_loops(tower, val):
    # the one series loop stops once the powers pass the window; the old
    # loops ran on and truncated, so every result must be identical
    rng = random.Random(100 * val + tower.depth)
    for n, prec in ((2, val + 1), (2, 7), (3, val + 3)):
        x = _random_argument(rng, tower, n, val, prec)
        assert _same(matrix_exp(x), _old_exp(x))
    exact = _random_argument(rng, tower, 3, val, INF, nilpotent=True)
    assert _same(matrix_exp(exact), _old_exp(exact))
    assert _same(matrix_exp(exact.truncate(6)), _old_exp(exact, prec_cap=6))


@pytest.mark.parametrize("tower", [QQ, K2, K4], ids=["depth0", "depth1", "depth2"])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_step_exponential_closed_forms(tower, i):
    # a Sibuya step gauges by g = exp(-u**i C) for a constant C and relies on
    # g**-1 = exp(+u**i C) and (dg/du) g**-1 = -i u**(i-1) C, precisions included
    rng = random.Random(10 * i + tower.depth)
    for n, p, nilpotent in ((3, 8, True), (2, 8, False), (3, i + 2, False)):
        grid = [[_scalar(rng, tower) if j > k or not nilpotent else 0
                 for j in range(n)] for k in range(n)]
        c = LaurentMatrix.constant(tower, grid).shift(i)
        g = matrix_exp((-c).truncate(p))
        assert _same(matrix_exp(c.truncate(p)), g.inverse())
        assert _same(g.derivative() * g.inverse(), (c.shift(-1) * -i).truncate(p - 1))


def test_exact_non_nilpotent_argument_is_refused():
    x = M([[S({1: 1}), S({})], [S({2: 3}), S({})]])
    with pytest.raises(NotNilpotent):
        matrix_exp(x)
    # truncating turns the same argument into an ordinary truncated one
    assert matrix_exp(x.truncate(4)).prec == 4


def exp_product_failures(seed: int, trials: int) -> list:
    """First-order exponential estimate on random arguments.

    With ``val(xi) >= N`` and ``val(eta) >= N + i`` the products
    ``exp(xi) exp(eta)`` and ``exp(xi + eta)`` agree below ``2N + i``: their
    first disagreement is the commutator.  Returns one string per failure.
    """
    rng = random.Random(seed)

    def argument(n, val, prec):  # valuation exactly val, known below prec
        coeffs = {e: checks.random_grid(rng, n)
                  for e in range(val, prec) if rng.random() < 0.8}
        if val not in coeffs:
            coeffs[val] = checks._nonzero_grid(rng, n)
        return LaurentMatrix.from_coeff_map(QQ, coeffs, n, prec)

    failures = []
    for k in range(trials):
        n = rng.randint(1, 3)
        N = rng.randint(1, 3)
        i = rng.randint(0, 2)
        bound = 2 * N + i
        xi, eta = argument(n, N, bound + 2), argument(n, N + i, bound + 2)
        if (matrix_exp(xi) * matrix_exp(eta) - matrix_exp(xi + eta)).valuation < bound:
            failures.append(f"trial {k}: exp product differs below 2N+i")
    return failures


def test_cbh_truncation_sweep():
    assert exp_product_failures(seed=3, trials=12) == []


def test_ramified_matrices_multiply():
    g = LaurentMatrix.monomial_diagonal(QQ, [1, -1], ram=2)
    h = g * g
    assert h.entry(0, 0).support() == [2]
    assert h.ram == 2


def test_truncate_matrix():
    m = M([[S({0: 1, 5: 1})]])
    t = m.truncate(3)
    assert t.prec == 3
    assert t.entry(0, 0).support() == [0]


# ---------------------------------------------------------------------------
# alignment of mixed towers and ramifications
#
# The expected entries are written out by hand (every entry lifted to
# u**6 = t and to K); the JSON is what the element-by-element alignment
# loop that the constructor replaced produced for the same inputs.

K = QQ.extend([-2, 0, 1])
ROOT = K.gen()


def _series(coeffs, prec=INF, ram=6):
    return LaurentSeries(K, coeffs, prec=prec, ram=ram)


MIXED_JSON = (
    '{"coefficients":[{"exp":-6,"matrix":[["1","0","0"],["0","0","0"],["0","1","0"]]},'
    '{"exp":0,"matrix":[["1/2","0","3"],["0",["1","1"],"4"],["1/3",["0","1"],"0"]]},'
    '{"exp":3,"matrix":[["0",["0","1"],"0"],["0","0","0"],["0","0","0"]]},'
    '{"exp":4,"matrix":[["0","0","0"],["5","0","0"],["0","0","0"]]}],'
    '"field":{"extensions":[["-2","0","1"]]},"precision":14,"ramification":6,"rank":3}'
)

def _assert_aligned(m, want, pinned):
    assert (m.ram, m.tower) == (6, K)
    for row, want_row in zip(m.entries, want):
        for got, w in zip(row, want_row):
            assert (got.ram, got.tower) == (6, K)
            assert got == w
    assert serialize.dumps(serialize.encode_matrix(m)) == serialize.dumps(
        serialize.loads(pinned))


def test_constructor_aligns_mixed_towers_and_ramifications():
    m = LaurentMatrix(QQ, [
        [S({-1: 1, 0: Fraction(1, 2)}, prec=3), LaurentSeries(K, {1: ROOT}, ram=2), QQ.rational(3)],
        [S({2: 5}, prec=7, ram=3), ROOT + 1, 4],
        [Fraction(1, 3), LaurentSeries(K, {-2: 1, 0: ROOT}, prec=5, ram=2), S({})],
    ])
    want = [
        [_series({-6: 1, 0: Fraction(1, 2)}, 18), _series({3: ROOT}), _series({0: 3})],
        [_series({4: 5}, 14), _series({0: ROOT + 1}), _series({0: 4})],
        [_series({0: Fraction(1, 3)}), _series({-6: 1, 0: ROOT}, 15), _series({})],
    ]
    _assert_aligned(m, want, MIXED_JSON)
    # the binary operations align through the same constructor
    assert m + LaurentMatrix.zero(QQ, 3) == m
    assert LaurentMatrix.identity(QQ, 3, ram=2) * m == m


# ---------------------------------------------------------------------------
# binary operations on operands over prefix towers and ramifications
#
# ``A`` lives over K with u**2 = t and ``B`` over L (K with sqrt 3 on top)
# with u**3 = t.  ``A6`` and ``B6`` are the same matrices written out by hand
# over L with u**6 = t.  Every operation on the mixed operands must equal the
# one on the hand-aligned operands, down to the serialized bytes.

L = K.extend([K.rational(-3), K.zero(), K.one()])
ROOT3 = L.gen()


def _over(tower, coeffs, prec=INF, ram=6):
    return LaurentSeries(tower, coeffs, prec=prec, ram=ram)


A = LaurentMatrix(K, [
    [_over(K, {-1: 1, 0: ROOT}, 3, 2), _over(K, {1: Fraction(1, 2)}, ram=2)],
    [_over(K, {0: 2}, 4, 2), _over(K, {}, ram=2)],
], ram=2)
B = LaurentMatrix(L, [
    [_over(L, {0: 1, 1: ROOT3}, 5, 3), _over(L, {-2: ROOT}, ram=3)],
    [_over(L, {}, 2, 3), _over(L, {0: 3, 2: -1}, ram=3)],
], ram=3)
A6 = LaurentMatrix(L, [
    [_over(L, {-3: 1, 0: ROOT}, 9), _over(L, {3: Fraction(1, 2)})],
    [_over(L, {0: 2}, 12), _over(L, {})],
], ram=6)
B6 = LaurentMatrix(L, [
    [_over(L, {0: 1, 2: ROOT3}, 10), _over(L, {-4: ROOT})],
    [_over(L, {}, 4), _over(L, {0: 3, 4: -1})],
], ram=6)
COLUMN = LaurentMatrix(L, [[_over(L, {0: 1, 1: ROOT3}, 3, 3)], [_over(QQ, {-1: 2}, ram=3)]],
                       ram=3)
COLUMN6 = LaurentMatrix(L, [[_over(L, {0: 1, 2: ROOT3}, 6)], [_over(L, {-2: 2})]], ram=6)


def _dumps(m):
    return serialize.dumps(serialize.encode_matrix(m))


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_matrix_operations_align_prefix_towers_and_ramifications(op):
    fn = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[op]
    assert (A.tower, B.tower) == (K, L)
    for x, y, x6, y6 in ((A, B, A6, B6), (B, A, B6, A6)) + (
            ((A, COLUMN, A6, COLUMN6),) if op == "*" else ()):
        got, want = fn(x, y), fn(x6, y6)
        assert (got.tower, got.ram) == (L, 6) and got.tower is L
        assert all(s.tower is L and s.ram == 6 for row in got.entries for s in row)
        assert got == want
        assert _dumps(got) == _dumps(want)


def test_matrix_comparisons_align_prefix_towers_and_ramifications():
    assert A == A6 and A6 == A and B == B6
    assert A != B and A6 != B6
    assert not (A == COLUMN)
    assert A.coincides_with(A6) and B6.coincides_with(B)
    assert not A.coincides_with(B) and not A.coincides_with(COLUMN)
    first_column = A6.submatrix([0, 1], [0])  # agrees with A where both have entries
    assert A != first_column and not A.coincides_with(first_column)
    # equal on the common window, different precision
    a_short = A.truncate(1)
    assert a_short != A and a_short.coincides_with(A) and A6.coincides_with(a_short)
    assert a_short == A6.truncate(3) and a_short != A6.truncate(4)
