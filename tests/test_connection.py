import random
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.cohomology import derham_dims
from mcred.connection import Connection
from mcred.errors import DomainViolation, PrecisionExhausted
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


def test_gauge_by_the_exact_identity_encodes_as_the_connection_itself():
    c = checks.random_connection(random.Random(3), 2, 2).truncate(3)
    assert (serialize.dumps(serialize.encode_connection(c.gauge(LaurentMatrix.identity(QQ, 2))))
            == serialize.dumps(serialize.encode_connection(c)))
    with pytest.raises(DomainViolation, match="shape"):
        c.gauge(LaurentMatrix.identity(QQ, 3))
    with pytest.raises(DomainViolation, match="ramification"):
        c.gauge(LaurentMatrix.identity(QQ, 2, ram=2))
    # an identity known only to a precision is gauged like any other matrix
    truncated = c.gauge(LaurentMatrix.identity(QQ, 2).truncate(5))
    assert truncated is not c and truncated.matrix.coincides_with(c.matrix)


def test_gauge_by_the_identity_over_a_deeper_tower_moves_to_that_tower():
    """The exact ``[[1]]`` written over Q(sqrt 2) gauges a connection over Q
    to the same connection over Q(sqrt 2), as any other gauge over Q(sqrt 2)
    does; the encoded field says so."""
    k = QQ.extend([-2, 0, 1])
    c = conn([[S({-1: Fraction(1, 2), 0: 3})]])
    for g in (LaurentMatrix.identity(k, 1), LaurentMatrix.constant(k, [[2]])):
        got = c.gauge(g)
        assert got.tower is k and all(s.tower is k for row in got.matrix.entries for s in row)
        assert serialize.encode_connection(got)["field"] == {"extensions": [["-2", "0", "1"]]}
    assert c.gauge(LaurentMatrix.identity(k, 1)).matrix.coincides_with(c.matrix)


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


@pytest.mark.parametrize("name", ["saddle-node", "ramified-pair", "jump-integer", "jump-half"])
def test_a_window_stopping_at_the_lead_needs_more_precision(name):
    c = checks.SAMPLES[name]()
    short = c.truncate(c.valuation)
    with pytest.raises(PrecisionExhausted) as info:
        short.leading()
    assert info.value.needed > short.prec
    # the hint moves the failure on: derham at that precision answers or
    # runs out elsewhere
    try:
        derham_dims(c.truncate(info.value.needed))
    except PrecisionExhausted as exc:
        assert str(exc) != str(info.value)


def test_the_exact_zero_has_no_lead():
    with pytest.raises(DomainViolation):
        Connection.from_coeff_map(QQ, {}, 2).leading()


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
    # known below 2 in common: a coupling at 1 is refused, one at 3 or 5
    # (where only its own entries are known) cuts both blocks there
    for at in (1, 3, 5):
        c = conn([[S({-2: 1}, 2), S({at: 1}, 6)], [S({}, 4), S({0: 5}, 6)]])
        if at < c.prec:
            with pytest.raises(NotBlockDiagonal, match=r"entry \(0, 1\)"):
                c.block_split([1, 1])
            continue
        a, b = c.block_split([1, 1])
        assert (a.prec, b.prec) == (2, at)
        assert b.matrix.entry(0, 0).coincides_with(S({0: 5}))


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
