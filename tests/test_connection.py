import random
from fractions import Fraction

import pytest

from mcred import checks
from mcred.connection import Connection
from mcred.errors import DomainViolation
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries

QQ = FieldTower()


def S(coeffs, prec=INF, ram=1):
    return LaurentSeries(QQ, coeffs, prec=prec, ram=ram)


def conn(entries, ram=1):
    return Connection(LaurentMatrix(QQ, entries, ram=ram))


def test_pole_order_and_residue():
    c = conn([[S({-2: 1, -1: Fraction(1, 2)}), S({})],
              [S({0: 3}), S({})]])
    assert c.pole_order == 2
    res = c.residue()
    assert res[0][0].to_fraction() == Fraction(1, 2)
    assert res[1][0].is_zero()
    assert conn([[S({0: 1})]]).pole_order == 0


def test_gauge_golden_family():
    # d - (n/t) e11 + t^{n-1} e12 moved by diag(t^-n, 1) lands on the
    # nilpotent model [[0, 1/t], [0, 0]]
    for n in (1, 2, 3):
        c = conn([[S({-1: -n}), S({n - 1: 1})], [S({}), S({})]])
        g = LaurentMatrix.monomial_diagonal(QQ, [-n, 0])
        moved = c.gauge(g)
        expect = conn([[S({}), S({-1: 1})], [S({}), S({})]])
        assert moved.matrix.coincides_with(expect.matrix)


def test_gauge_golden_family_diagonal_case():
    # without the off-diagonal term the same gauge trivializes the connection
    for n in (1, 2, 3):
        c = conn([[S({-1: -n}), S({})], [S({}), S({})]])
        g = LaurentMatrix.monomial_diagonal(QQ, [-n, 0])
        assert c.gauge(g).matrix.is_zero()


def test_gauge_composition_law():
    rng = random.Random(11)
    c = checks.random_connection(rng, 2, 2)
    g1 = checks.random_unit_gauge(rng, 2)
    g2 = checks.random_unit_gauge(rng, 2)
    once = c.gauge(g2 * g1)
    twice = c.gauge(g1).gauge(g2)
    assert once.matrix.coincides_with(twice.matrix)


def test_gauge_inverse_roundtrip():
    rng = random.Random(5)
    c = checks.random_connection(rng, 3, 1)
    g = checks.random_unit_gauge(rng, 3)
    back = c.gauge(g).gauge(g.inverse())
    assert back.matrix.coincides_with(c.matrix)


def test_ramify_composes():
    c = conn([[S({-2: 1})]])
    both = c.ramify(2).ramify(3)
    assert both.ram == 6
    assert both.matrix.coincides_with(c.ramify(6).matrix)


def test_ramify_scales_polar_part():
    # d + t^{-2} dt pulled back along t = u^2 becomes 2 u^{-3} du
    c = conn([[S({-2: 1})]])
    up = c.ramify(2)
    assert up.pole_order == 3
    assert up.matrix.entry(0, 0).coincides_with(S({-3: 2}, ram=2))


def test_apply_nabla_leibniz():
    rng = random.Random(7)
    c = checks.random_connection(rng, 2, 2)
    f = S({0: 2, 1: 3, 2: Fraction(1, 5)})
    v = LaurentMatrix(QQ, [[S({0: 1, 1: 4})], [S({2: 1})]])
    f_mat = LaurentMatrix(QQ, [[f, S({})], [S({}), f]])
    df_mat = LaurentMatrix(QQ, [[f.derivative(), S({})], [S({}), f.derivative()]])
    lhs = c.apply_nabla(f_mat * v)
    rhs = f_mat * c.apply_nabla(v) + df_mat * v
    assert lhs.coincides_with(rhs)


def test_zero_cocycle_family():
    # v = (t^l, -l t^{l+1}) is flat for the pole-2 connection with
    # lower-left entry l(l+1)
    for ell in (0, 1, 2, 3):
        c = conn([[S({}), S({-2: 1})],
                  [S({0: ell * (ell + 1)}), S({})]])
        v = LaurentMatrix(QQ, [[S({ell: 1})], [S({ell + 1: -ell})]])
        assert c.apply_nabla(v).is_zero()


def test_scalar_twist_shifts_diagonal():
    c = conn([[S({}), S({0: 1})], [S({}), S({})]])
    tw = c.scalar_twist(S({-1: Fraction(1, 2)}))
    assert tw.matrix.entry(0, 0).coincides_with(S({-1: Fraction(1, 2)}))
    assert tw.matrix.entry(1, 1).coincides_with(S({-1: Fraction(1, 2)}))
    assert tw.matrix.entry(0, 1).coincides_with(S({0: 1}))


def test_moves_refuse_another_ramification():
    # G would be lifted to the argument's variable without the Jacobian
    # factor of Connection.ramify, so a mismatched ram is refused
    c = checks.sample_saddle_node()
    assert c.ramify(2).pole_order == 3
    with pytest.raises(DomainViolation):
        c.gauge(LaurentMatrix.identity(QQ, 2, ram=2))
    with pytest.raises(DomainViolation):
        c.scalar_twist(LaurentSeries.zero(QQ, 2))
    with pytest.raises(DomainViolation):
        c.apply_nabla(LaurentMatrix.identity(QQ, 2, ram=2))
    c2 = c.ramify(2)
    assert c2.gauge(LaurentMatrix.identity(QQ, 2, ram=2)) == c2
    assert c2.scalar_twist(LaurentSeries.zero(QQ, 2)) == c2


def test_connections_at_different_ramifications_differ():
    # the same entries read in another variable are another connection
    c = checks.sample_saddle_node()
    d = Connection(c.matrix.lift_ramification(2))
    assert (c.pole_order, d.pole_order) == (2, 4)
    assert d != c and c != d
    assert not d.coincides_with(c) and not c.coincides_with(d)
    assert c.ramify(2) != c
    assert d == Connection(c.matrix.lift_ramification(2))


def test_block_split_and_direct_sum():
    a = conn([[S({-1: 1})]])
    b = conn([[S({}), S({0: 1})], [S({}), S({})]])
    whole = conn([[S({-1: 1}), S({}), S({})],
                  [S({}), S({}), S({0: 1})],
                  [S({}), S({}), S({})]])
    parts = whole.block_split([1, 2])
    assert parts[0].matrix.coincides_with(a.matrix)
    assert parts[1].matrix.coincides_with(b.matrix)
    with pytest.raises(DomainViolation):
        whole.block_split([2, 2])


def test_block_split_rejects_coupled_blocks():
    c = conn([[S({}), S({0: 1})], [S({0: 1}), S({})]])
    from mcred.errors import NotBlockDiagonal
    with pytest.raises(NotBlockDiagonal):
        c.block_split([1, 1])


def test_residue_units_after_ramification():
    # residue is reported against du; dividing by ram recovers dt/t units
    c = conn([[S({-1: Fraction(1, 2)})]])
    up = c.ramify(2)
    res_u = up.residue()[0][0].to_fraction()
    assert res_u == 1
    assert Fraction(res_u, up.ram) == Fraction(1, 2)


def test_truncate_connection():
    c = conn([[S({-2: 1, 3: 1})]])
    t = c.truncate(2)
    assert t.prec == 2
    assert t.matrix.entry(0, 0).support() == [-2]
