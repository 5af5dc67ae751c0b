import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mcred import checks, reduction, serialize, series
from mcred.connection import Connection
from mcred.errors import DomainViolation, EngineError, NotInvertible, PrecisionExhausted
from mcred.field import FieldElement, FieldTower, common_tower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries, _from_form, _integral
from test_product_kernel import ORACLE, TOWERS, elements, series_pairs

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
    assert LaurentSeries(K, {0: x}).coeff(0) == x  # already on the tower
    with pytest.raises(DomainViolation):
        LaurentSeries(QQ, {0: K.gen(), 1: QQ.extend([-3, 0, 1]).gen()})
    with pytest.raises(DomainViolation):
        LaurentSeries(QQ, {0: 1.5})


def test_repr_mentions_exponents():
    text = repr(S({-2: 3, 0: Fraction(1, 2)}))
    assert "t^-2" in text and "1/2" in text


# -- one representation: every operation against the element-wise oracle -------

DEEPEST = TOWERS[-1]  # every tower of TOWERS is a prefix of it


class Ref:
    """The element-wise series the integer forms replaced: a dict of
    ``FieldElement`` coefficients and a precision, every operation term by
    term, with the method bodies ``LaurentSeries`` had before its form
    became its one state."""

    def __init__(self, tower, coeffs, prec, ram):
        self.tower, self.ram, self.prec = tower, ram, prec
        self.coeffs = {e: c for e, c in coeffs.items() if e < prec and not c.is_zero()}

    @classmethod
    def of(cls, s):
        """The oracle of a series, from the coefficients read off its form."""
        return cls(s.tower, dict(s.coeffs), s.prec, s.ram)

    @property
    def valuation(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def is_zero(self):
        return not self.coeffs and self.prec is INF

    def is_zero_to_precision(self):
        return not self.coeffs

    def is_monomial(self):
        return self.prec is INF and len(self.coeffs) == 1

    def support(self):
        return sorted(self.coeffs)

    def lift_ramification(self, m):
        prec = self.prec if self.prec is INF else m * self.prec
        return Ref(self.tower, {m * e: c for e, c in self.coeffs.items()}, prec, self.ram * m)

    def recast(self, tower, ram):
        s = self.lift_ramification(ram // self.ram)
        return Ref(tower, {e: FieldElement(tower, c.form) for e, c in s.coeffs.items()},
                   s.prec, s.ram)

    def truncate(self, prec):
        return Ref(self.tower, self.coeffs, min(self.prec, prec), self.ram)

    def _pair(self, other):
        b = other if isinstance(other, Ref) else Ref.of(LaurentSeries.constant(
            self.tower, other, self.ram))
        tower, ram = common_tower(self.tower, b.tower), math.lcm(self.ram, b.ram)
        return self.recast(tower, ram), b.recast(tower, ram)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return Ref(a.tower, out, min(a.prec, b.prec), a.ram)

    def __neg__(self):
        return Ref(self.tower, {e: -c for e, c in self.coeffs.items()}, self.prec, self.ram)

    def __sub__(self, other):
        return self + (-other)

    def inverse(self):
        if self.is_zero_to_precision():
            if self.prec is INF:
                raise NotInvertible("inverse of the zero series")
            raise PrecisionExhausted(
                "cannot invert: no nonzero coefficient in the known window",
                needed=None,
            )
        v, coeffs = self.valuation, self.coeffs
        lead = coeffs[v]
        lead_inv = lead.inverse()
        if self.is_monomial():
            return Ref(self.tower, {-v: lead_inv}, INF, self.ram)
        if self.prec is INF:
            raise DomainViolation(
                "inverse of a non-monomial exact series does not terminate; "
                "truncate it first"
            )
        # relative precision of 1 + x where self = lead * u^v * (1 + x)
        rel = self.prec - v
        x = {e - v: c * lead_inv for e, c in coeffs.items() if e != v}
        b: dict[int, FieldElement] = {0: self.tower.one()}
        for k in range(1, rel):
            acc = None
            for j, xj in x.items():
                if 0 < j <= k and (k - j) in b:
                    term = xj * b[k - j]
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                b[k] = -acc
        out = {-v + k: ck * lead_inv for k, ck in b.items()}
        return Ref(self.tower, out, -v + rel, self.ram)

    def derivative(self):
        prec = self.prec if self.prec is INF else self.prec - 1
        return Ref(self.tower, {e - 1: c * e for e, c in self.coeffs.items() if e != 0}, prec,
                   self.ram)

    def shift(self, k):
        prec = self.prec if self.prec is INF else self.prec + k
        return Ref(self.tower, {e + k: c for e, c in self.coeffs.items()}, prec, self.ram)

    def coincides_with(self, other):
        a, b = self._pair(other)
        hi = min(a.prec, b.prec)
        return ({e: x for e, x in a.coeffs.items() if e < hi}
                == {e: x for e, x in b.coeffs.items() if e < hi})

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.prec == b.prec and a.coeffs == b.coeffs


def _encoded(s):
    return serialize.dumps(serialize.encode_series(s))


def _check(got, want):
    """``got`` reads like the oracle's ``want``: coefficients, precision
    (``INF`` itself when infinite), valuation, zero tests, support, encoded
    bytes, and the form of the series the constructor builds from the
    oracle's coefficients."""
    built = LaurentSeries(want.tower, want.coeffs, want.prec, want.ram)
    assert (got.tower, got.ram) == (want.tower, want.ram)
    assert got.prec == want.prec and (got.prec is INF) is (want.prec is INF)
    assert got.valuation == want.valuation
    assert got.is_zero() is want.is_zero()
    assert got.is_zero_to_precision() is want.is_zero_to_precision()
    assert got.is_monomial() is want.is_monomial()
    assert got.support() == want.support()
    assert got.form == built.form
    assert got.coeffs == want.coeffs
    assert _encoded(got) == _encoded(built)


def _unviewed(s):
    """``s`` rebuilt from its form alone, by :func:`series._from_form`
    instead of the constructor."""
    return _from_form(s.tower, s.ram, s.form)


@ORACLE
@given(series_pairs(), st.sampled_from([1, 2, 3]), st.sampled_from([-2, 3]),
       st.one_of(st.integers(-3, 7), st.just(INF)))
def test_every_operation_matches_the_element_wise_oracle(pair, m, k, cut):
    a, b = pair
    ra = Ref.of(a)
    rb = Ref.of(b) if isinstance(b, LaurentSeries) else b
    for s in (a, _unviewed(a)):
        _check(s, ra)
        _check(-s, -ra)
        _check(s + b, ra + rb)
        _check(s - b, ra - rb)
        _check(s.truncate(cut), ra.truncate(cut))
        _check(s.derivative(), ra.derivative())
        _check(s.shift(k), ra.shift(k))
        _check(s.lift_ramification(m), ra.lift_ramification(m))
        _check(s.recast(DEEPEST, m * s.ram), ra.recast(DEEPEST, m * s.ram))
        try:
            want = ra.inverse()
        except EngineError as exc:
            with pytest.raises(type(exc)) as got:
                s.inverse()
            assert str(got.value) == str(exc)
            assert getattr(got.value, "needed", None) == getattr(exc, "needed", None)
        else:
            _check(s.inverse(), want)
        assert s.coincides_with(b) is ra.coincides_with(rb)
        assert (s == b) is (ra == rb)
        if isinstance(b, LaurentSeries):
            _check(b + s, rb + ra)
            assert b.coincides_with(s) is rb.coincides_with(ra)
            assert s.coincides_with(s.truncate(cut)) and s == _unviewed(s)


@ORACLE
@given(series_pairs(), st.sampled_from([1, 2, 3]))
def test_a_product_holds_the_integer_form_of_its_eager_series(pair, m):
    # the series the constructor builds from the product's coefficients has
    # the product's form: equal values give equal forms, in any tower and
    # variable
    a, b = pair
    p = a * b
    if p.is_zero():
        assert p.form is None
        return
    for tower, ram in ((p.tower, p.ram), (p.tower, m * p.ram), (DEEPEST, p.ram),
                       (DEEPEST, m * p.ram)):
        size = tower.sizes[-1]
        direct = LaurentSeries(p.tower, dict(p.coeffs), p.prec, p.ram).recast(tower, ram)
        want = _integral(direct, ram, size)
        assert _integral(p, ram, size) == want
        moved = p.recast(tower, ram)
        assert moved == direct and moved.tower is tower and moved.prec == direct.prec
        assert (moved.prec is INF) is (direct.prec is INF)
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
    _ = (m * m, p * a, a * p, p + q, -p, p.truncate(p.valuation + 1), p.derivative(),
         p.shift(2), p.recast(DEEPEST, 2 * p.ram), p.coincides_with(q), p.coeffs)
    assert p.form == before


@ORACLE
@given(st.sampled_from(TOWERS), st.sampled_from([1, 2, 3]),
       st.one_of(st.integers(-3, 6), st.just(INF)), st.data())
def test_coefficient_reads_match_the_element_oracle(tower, ram, prec, data):
    # the oracle is the dict of elements the form is made of; exponents
    # -5 and -4 lie below every valuation, the gaps between drawn exponents
    # hold no term, and every exponent from prec on is unknown
    exps = data.draw(st.lists(st.integers(-3, 5), max_size=5, unique=True))
    want = {e: x for e in exps if e < prec and not (x := data.draw(elements(tower))).is_zero()}
    s = _from_form(tower, ram, series._form_of(tower.sizes[-1], prec, want))
    assert (s.tower, s.ram, s.prec) == (tower, ram, prec)
    assert s.coeffs == want and s.items() == sorted(want.items())
    assert all(x.tower is tower for _, x in s.items())
    for e in range(-5, 8):
        if e >= prec:
            with pytest.raises(PrecisionExhausted) as exc:
                s.coeff(e)
            assert exc.value.needed == e + 1
            continue
        got, expected = s.coeff(e), want.get(e, tower.zero())
        assert got.tower is tower and got.form == expected.form and got == expected


def test_comparisons_and_scans_build_no_coefficients(monkeypatch):
    # views built from forms only: comparing, scanning supports, valuations
    # and zero tests must read the forms
    built = []
    real = series._view_of
    monkeypatch.setattr(series, "_view_of",
                        lambda tower, form: built.append(form) or real(tower, form))
    c = checks.random_connection(random.Random(5), 3, 2, kind="nilpotent_lead").truncate(6)
    g = checks.random_unit_gauge(random.Random(6), 3)
    d = c.gauge(g)
    e = Connection(LaurentMatrix(d.tower, [[_unviewed(s) for s in row]
                                           for row in d.matrix.entries], d.ram))
    built.clear()
    assert d.coincides_with(e) and e.coincides_with(d) and d == e
    assert d.matrix.support() == e.matrix.support() and d.valuation == e.valuation
    assert d.prec == e.prec and d.pole_order == e.pole_order
    assert not d.matrix.is_zero_to_precision() and not e.matrix.is_zero()
    for s in (x for row in e.matrix.entries for x in row):
        assert s.coincides_with(s.truncate(3)) and s.support() == sorted(s.support())
        _ = (s.valuation, s.is_zero_to_precision(), s.is_monomial(), s.derivative(), -s,
             s + s, s.shift(1), s.recast(DEEPEST, 2))
    assert built == []
    e.matrix.entries[0][0].coeffs
    assert len(built) == 1


def test_replay_builds_no_coefficients(monkeypatch):
    # replay compares each leaf on forms, and the cofactor inverses invert
    # their determinants on forms too
    inputs = [checks.random_connection(random.Random(seed), n, 2, kind=kind)
              for seed in (1, 2) for n in (2, 3) for kind in ("generic", "nilpotent_lead")]
    trees = [reduction.reduce(c) for c in inputs]
    built = []
    real = series._view_of
    monkeypatch.setattr(series, "_view_of",
                        lambda tower, form: built.append(form) or real(tower, form))
    for tree in trees:
        assert reduction.replay(tree) is True
    assert built == []
