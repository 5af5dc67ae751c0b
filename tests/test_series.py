import copy
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mcred.errors import DomainViolation, NotInvertible, PrecisionExhausted
from mcred.field import FieldTower, common_tower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries, _from_form, _integral
from test_product_kernel import ORACLE, TOWERS, series, series_pairs

QQ = FieldTower()


def S(coeffs, prec=INF, ram=1):
    return LaurentSeries(QQ, coeffs, prec=prec, ram=ram)


def test_construction_drops_zero_coefficients():
    s = S({-1: Fraction(0), 0: Fraction(2), 3: Fraction(0)})
    assert s.support() == [0]
    assert s.coeff(0).to_fraction() == 2
    assert s.coeff(17).is_zero()


def test_valuation_conventions():
    assert S({-2: 1, 5: 3}).valuation == -2
    assert S({}).valuation == INF          # exact zero
    assert S({}, prec=4).valuation == 4    # zero to known precision


def test_is_zero_vs_known_window():
    assert S({}).is_zero()
    assert not S({}, prec=3).is_zero()
    assert S({}, prec=3).is_zero_to_precision()


def test_precision_canonicalization():
    # arithmetic must never leave a fresh float inf behind
    a = S({0: 1})
    b = S({2: 5})
    assert (a * b).prec is INF
    assert (a + b).prec is INF
    assert a.derivative().prec is INF
    with pytest.raises(DomainViolation):
        S({0: 1}, prec=Fraction(1, 2))


def test_addition_precision_is_min():
    a = S({0: 1}, prec=5)
    b = S({1: 2}, prec=3)
    assert (a + b).prec == 3
    assert (a - b).prec == 3


def test_multiplication_precision_rule():
    # prec(ab) = min(val a + prec b, val b + prec a)
    a = S({-1: 1}, prec=4)
    b = S({2: 7}, prec=6)
    assert (a * b).prec == min(-1 + 6, 2 + 4)


def test_product_values():
    a = S({0: 1, 1: 1})        # 1 + t
    b = S({0: 1, 1: -1})       # 1 - t
    p = a * b
    assert p.support() == [0, 2]
    assert p.coeff(2).to_fraction() == -1


def test_scalar_and_int_mixing():
    a = S({1: Fraction(1, 2)})
    assert (a * 4).coeff(1).to_fraction() == 2
    assert (a + 0).coincides_with(a)
    assert (3 * a).coeff(1).to_fraction() == Fraction(3, 2)


def test_derivative():
    s = S({-2: 3, 0: 5, 4: 1})
    d = s.derivative()
    assert d.coeff(-3).to_fraction() == -6
    assert d.coeff(-1).is_zero()
    assert d.coeff(3).to_fraction() == 4
    # constants die, precision drops by one
    assert S({0: 9}, prec=7).derivative().prec == 6


def test_inverse_of_unit():
    s = S({0: 1, 1: -1})       # 1 - t
    inv = s.truncate(5).inverse()
    for k in range(5):
        assert inv.coeff(k).to_fraction() == 1
    assert inv.prec == 5
    assert (s * inv - S({0: 1})).is_zero_to_precision()


def test_inverse_precision_rule():
    # prec(s^{-1}) = prec - 2*val
    s = S({2: 1, 3: 4}, prec=7)
    assert s.inverse().prec == 7 - 4
    assert s.inverse().valuation == -2


def test_inverse_monomial_stays_exact():
    s = S({-3: Fraction(2, 5)})
    inv = s.inverse()
    assert inv.prec is INF
    assert inv.coeff(3).to_fraction() == Fraction(5, 2)


def test_inverse_errors():
    with pytest.raises(NotInvertible):
        S({}).inverse()
    with pytest.raises(PrecisionExhausted):
        S({}, prec=3).inverse()
    # exact non-monomial inverse is an infinite object: demand a cap
    with pytest.raises(DomainViolation):
        S({0: 1, 1: 1}).inverse()


def test_truncate_and_restrict():
    s = S({-1: 1, 0: 2, 3: 4})
    t = s.truncate(2)
    assert t.prec == 2
    assert t.support() == [-1, 0]


def test_coeff_beyond_precision_raises():
    s = S({0: 1}, prec=3)
    assert s.coeff(2).is_zero()
    with pytest.raises(PrecisionExhausted):
        s.coeff(3)


def test_shift():
    s = S({-1: 2, 1: 3}, prec=4)
    sh = s.shift(2)
    assert sh.support() == [1, 3]
    assert sh.prec == 6


def test_ramification_lift():
    s = S({-1: 1, 2: 5})
    lifted = s.lift_ramification(3)
    assert lifted.ram == 3
    assert lifted.support() == [-3, 6]
    with pytest.raises(DomainViolation):
        s.lift_ramification(0)


def test_mixed_ramification_arithmetic_lifts():
    a = S({1: 1})                     # t
    b = S({1: 1}, ram=2)              # t^{1/2}
    c = a + b
    assert c.ram == 2
    assert c.support() == [1, 2]


def test_coincides_with_compares_overlap():
    a = S({0: 1, 5: 9}, prec=3)
    b = S({0: 1}, prec=4)
    assert a.coincides_with(b)      # they agree below min(prec)
    c = S({1: 2}, prec=4)
    assert not a.coincides_with(c)


def test_monomial_classifier():
    assert S({3: 7}).is_monomial()
    assert not S({0: 1, 1: 1}).is_monomial()
    assert not S({}).is_monomial()


def test_map_coefficients_and_tower_lift():
    K = QQ.extend([-2, 0, 1])
    s = S({0: 2, 1: 3})
    lifted = s.recast(common_tower(s.tower, K), s.ram)
    assert lifted.tower is K


def test_recast_and_with_tower_return_self_when_nothing_changes():
    K = QQ.extend([-2, 0, 1])
    s = S({-1: 2, 1: 3}, prec=4)
    assert s.recast(QQ, 1) is s
    assert s.recast(common_tower(s.tower, QQ), s.ram) is s
    k = LaurentSeries(K, {0: K.gen()})
    assert k.recast(common_tower(k.tower, QQ), k.ram) is k and k.recast(K, 1) is k
    r = s.recast(K, 2)
    assert (r.tower, r.ram, r.support(), r.prec) == (K, 2, [-2, 2], 8)
    assert r.recast(K, 2) is r
    with pytest.raises(DomainViolation):
        r.recast(K, 3)


def test_construction_puts_every_coefficient_on_the_deepest_tower():
    K = QQ.extend([-2, 0, 1])
    L = K.extend([K.rational(-3), K.zero(), K.one()])
    # shallower coefficients come first; the last one deepens the tower
    s = LaurentSeries(QQ, {0: 1, 1: Fraction(1, 2), 2: QQ.rational(3),
                           3: K.gen(), 4: L.gen()})
    assert s.tower is L
    assert all(c.tower is L for _, c in s.items())
    assert s.coeff(3) == K.gen() and s.coeff(0) == 1
    x = K.gen()
    assert LaurentSeries(K, {0: x}).coeff(0) is x  # already on the tower: kept
    with pytest.raises(DomainViolation):
        LaurentSeries(QQ, {0: K.gen(), 1: QQ.extend([-3, 0, 1]).gen()})
    with pytest.raises(DomainViolation):
        LaurentSeries(QQ, {0: 1.5})


def test_repr_mentions_exponents():
    text = repr(S({-2: 3, 0: Fraction(1, 2)}))
    assert "t^-2" in text and "1/2" in text


# -- held series: the product kernel's series keep their integer forms --------

DEEPEST = TOWERS[-1]  # every tower of TOWERS is a prefix of it


def _unfilled(s):
    """Whether the ``coeffs`` slot of ``s`` is still unset."""
    try:
        object.__getattribute__(s, "coeffs")
    except AttributeError:
        return True
    return False


def _same_prec(a, b):
    """Equal precisions, each finite or the module's ``INF`` itself."""
    return a.prec == b.prec and (a.prec is INF) is (b.prec is INF)


def _eager(s):
    """The eager series with the coefficients and precision of ``s``."""
    return LaurentSeries(s.tower, dict(s.coeffs), s.prec, s.ram)


@st.composite
def eager_series(draw):
    """An eager series over a tower of depth 0-2 at ramification 1 or 2:
    exact, truncated, zero to its precision, or the exact zero."""
    tower, ram = draw(st.sampled_from(TOWERS)), draw(st.sampled_from([1, 2]))
    return draw(series(tower, ram))


@ORACLE
@given(eager_series())
def test_a_held_series_reads_like_the_eager_one(s):
    # built from the form of a copy, so that ``s`` never computes its own
    size = s.tower.sizes[-1]
    held = _from_form(s.tower, s.ram, _integral(_eager(s), s.ram, size))
    if s.is_zero():  # the form of the exact zero is None: an eager zero
        assert held.form is None and held.is_zero()
        return
    assert held.form is not None and _unfilled(held) and s.form is None
    assert held.valuation == s.valuation and _same_prec(held, s)
    assert held.is_zero() is s.is_zero() is False
    assert held.is_zero_to_precision() is s.is_zero_to_precision()
    d, want = held.derivative(), s.derivative()
    assert d == want and _same_prec(d, want)
    assert _integral(d, s.ram, size) == _integral(_eager(want), s.ram, size)
    for k in (-2, 3):
        moved, want = held.shift(k), s.shift(k)
        assert _unfilled(moved) and moved == want and _same_prec(moved, want)
        assert _integral(moved, s.ram, size) == _integral(_eager(want), s.ram, size)
    assert _unfilled(held)  # none of the above built an element
    assert s.form is None  # nor computed the eager series' form
    assert held.coeffs == s.coeffs and held.items() == s.items()
    assert held == s and s == held
    assert held.coincides_with(s) and s.coincides_with(held)
    form = _integral(s, s.ram, size)  # computed once, then kept
    assert form == held.form and s.form is form and _integral(s, s.ram, size) is form


@ORACLE
@given(series_pairs(), st.sampled_from([1, 2, 3]))
def test_a_product_holds_the_integer_form_of_its_eager_series(pair, m):
    a, b = pair
    p = a * b
    if p.is_zero():
        assert p.form is None
        return
    for tower, ram in ((p.tower, p.ram), (p.tower, m * p.ram), (DEEPEST, p.ram),
                       (DEEPEST, m * p.ram)):
        size = tower.sizes[-1]
        # an eager copy built over ``tower`` in ``ram`` converts there directly
        direct = _eager(p).recast(tower, ram)
        want = _integral(direct, ram, size)
        assert _integral(p, ram, size) == want
        moved = p.recast(tower, ram)
        assert moved == direct and moved.tower is tower and _same_prec(moved, direct)
        assert _integral(moved, ram, size) == want
    assert p.recast(p.tower, p.ram) is p


@ORACLE
@given(series_pairs())
def test_a_product_never_mutates_a_held_form(pair):
    a, b = pair
    p = a * b
    if p.form is None:
        return
    before = copy.deepcopy(p.form)
    q = p * p
    m = LaurentMatrix(p.tower, [[p, q], [q, p]], p.ram)
    _ = (m * m, p * a, a * p, p.derivative(), p.recast(DEEPEST, 2 * p.ram), p.coeffs)
    assert p.form == before
