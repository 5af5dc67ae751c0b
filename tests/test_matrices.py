import random
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.errors import DomainViolation, NotInvertible
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix, block_diag, dlog, matrix_exp, matrix_log
from mcred.series import INF, LaurentSeries

QQ = FieldTower()


def S(coeffs, prec=INF, ram=1):
    return LaurentSeries(QQ, coeffs, prec=prec, ram=ram)


def M(entries, ram=1):
    return LaurentMatrix(QQ, entries, ram=ram)


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
    assert g.det().coincides_with(S({0: 1}))
    inv = g.inverse()
    assert (g * inv).coincides_with(LaurentMatrix.identity(QQ, 2))
    assert inv.entry(0, 1).coeff(1).to_fraction() == -2


def test_inverse_requires_cap_for_infinite_series():
    g = M([[S({0: 1, 1: 1})]])     # det = 1 + t, exact
    with pytest.raises(DomainViolation):
        g.inverse()
    inv = g.inverse(prec_cap=4)
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
    a = LaurentMatrix.constant(QQ, [[1]])
    b = LaurentMatrix.constant(QQ, [[2, 0], [0, 3]])
    big = block_diag([a, b])
    assert big.size == 3
    assert big.entry(2, 2).coeff(0).to_fraction() == 3
    assert big.submatrix(range(1, 3), range(1, 3)).coincides_with(b)


def test_scale_and_shift():
    m = LaurentMatrix.constant(QQ, [[1, 0], [0, 1]])
    sh = m.shift(-2)
    assert sh.valuation == -2
    sc = m.scale(S({1: 3}))
    assert sc.entry(0, 0).support() == [1]


def test_exp_log_nilpotent_exact():
    n = M([[S({}), S({1: 1})], [S({}), S({})]])
    e = matrix_exp(n)
    assert e.prec is INF
    assert e.entry(0, 1).coeff(1).to_fraction() == 1
    assert e.entry(0, 0).coincides_with(S({0: 1}))
    back = matrix_log(e)
    assert back.coincides_with(n)


def test_exp_positive_valuation_with_cap():
    x = M([[S({1: 1}), S({})], [S({}), S({1: -1})]])
    e = matrix_exp(x, prec_cap=4)
    # exp(t) = 1 + t + t^2/2 + t^3/6
    assert e.entry(0, 0).coeff(2).to_fraction() == Fraction(1, 2)
    assert e.entry(1, 1).coeff(3).to_fraction() == Fraction(-1, 6)
    assert matrix_log(e).coincides_with(x)


def test_exp_demands_positive_valuation():
    with pytest.raises(DomainViolation):
        matrix_exp(LaurentMatrix.constant(QQ, [[1]]), prec_cap=5)


def test_dlog_monomial_diagonal():
    g = LaurentMatrix.monomial_diagonal(QQ, [3, -1])
    d = dlog(g)
    # (d/dt t^a) t^-a = a/t
    assert d.entry(0, 0).coincides_with(S({-1: 3}))
    assert d.entry(1, 1).coincides_with(S({-1: -1}))


def test_dlog_product_rule_additive_on_commuting_factors():
    g = LaurentMatrix.monomial_diagonal(QQ, [2, 5])
    h = LaurentMatrix.monomial_diagonal(QQ, [-1, 1])
    lhs = dlog(g * h)
    rhs = dlog(g) + dlog(h)
    assert lhs.coincides_with(rhs)


def test_cbh_truncation_sweep():
    # exp(xi) exp(eta) agrees with exp(xi + eta) below 2N + i, and the dlog
    # mismatch is one exponent tighter; the library suite states both bounds
    failures = checks.suite_exp_log(seed=3, trials=12)
    assert failures == []


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

BLOCKS_JSON = (
    '{"coefficients":[{"exp":-9,"matrix":[["0","0","0","0"],["0","0","0","0"],'
    '["0","1","0","0"],["0","0","0","0"]]},'
    '{"exp":-6,"matrix":[["2","0","0","0"],["0","0","0","0"],["0","0","0","0"],'
    '["0","0","0","0"]]},'
    '{"exp":0,"matrix":[["0","0","0","0"],["0",["0","1"],"1","0"],["0","0","0","0"],'
    '["0","0","0","0"]]},'
    '{"exp":2,"matrix":[["0","0","0","0"],["0","0","0","0"],["0","0","0","0"],'
    '["0","0","0","-1/2"]]}],'
    '"field":{"extensions":[["-2","0","1"]]},"precision":18,"ramification":6,"rank":4}'
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


def test_block_diag_aligns_blocks_with_different_ramifications():
    a = M([[S({-1: 2}, prec=4)]])
    b = LaurentMatrix(K, [[LaurentSeries(K, {0: ROOT}, ram=2), 1],
                          [LaurentSeries(K, {-3: 1}, prec=6, ram=2), 0]])
    c = M([[S({1: Fraction(-1, 2)}, ram=3)]], ram=3)
    z = _series({})
    want = [
        [_series({-6: 2}, 24), z, z, z],
        [z, _series({0: ROOT}), _series({0: 1}), z],
        [z, _series({-9: 1}, 18), z, z],
        [z, z, z, _series({2: Fraction(-1, 2)})],
    ]
    _assert_aligned(block_diag([a, b, c]), want, BLOCKS_JSON)
