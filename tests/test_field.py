import functools
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import mcred
from mcred import linalg, serialize
from mcred.connection import Connection
from mcred.errors import DomainViolation, NotInvertible, ZeroDivisorSplit
from mcred.field import (
    FieldElement,
    FieldTower,
    _inv,
    _inv_by_euclid,
    _mul,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_squarefree,
    common_context,
    common_tower,
)
from mcred.leading import rational_roots
from mcred.matrices import LaurentMatrix
from mcred.series import LaurentSeries
from test_leading import _large_root_poly, _old_rational_poly_roots

QQ = FieldTower()


def test_rational_substrate():
    a = QQ.rational(Fraction(2, 3))
    b = QQ.rational(5)
    assert (a + b).to_fraction() == Fraction(17, 3)
    assert (a * b).to_fraction() == Fraction(10, 3)
    assert (a - a).is_zero()
    assert a.inverse().to_fraction() == Fraction(3, 2)
    assert QQ.depth == 0


def test_coerce_accepts_ints_and_fractions():
    assert QQ.coerce(7).to_fraction() == 7
    assert QQ.coerce(Fraction(-1, 4)).to_fraction() == Fraction(-1, 4)
    el = QQ.rational(3)
    assert (QQ.coerce(el) - el).is_zero()


def test_quadratic_extension_arithmetic():
    K = QQ.extend([-2, 0, 1])  # adjoin a root of x^2 - 2
    s = K.gen()
    two = K.rational(2)
    assert (s * s - two).is_zero()
    # (s + 1)(s - 1) = s^2 - 1 = 1
    prod = (s + K.one()) * (s - K.one())
    assert (prod - K.one()).is_zero()
    # inverse of s is s/2
    assert (s.inverse() - s * K.rational(Fraction(1, 2))).is_zero()


def test_nested_tower_levels():
    K = QQ.extend([-2, 0, 1])
    L = K.extend([K.rational(-3), K.zero(), K.one()])  # adjoin sqrt 3 on top
    assert L.depth == 2
    s, t = L.gen(1), L.gen(2)
    st = s * t
    # (sqrt2 * sqrt3)^2 = 6
    assert (st * st - L.rational(6)).is_zero()
    assert (L.degree(1), L.degree(2)) == (2, 2)


def test_coercion_lifts_lower_levels():
    K = QQ.extend([-2, 0, 1])
    s = K.gen()
    mixed = s + 1  # int mixes in
    assert isinstance(mixed, FieldElement)
    assert ((mixed - s).to_fraction()) == 1


def test_zero_divisor_split_reports_factors():
    L = QQ.extend([-1, 0, 1])  # x^2 - 1 is reducible: the tower is a ring
    g = L.gen()
    with pytest.raises(ZeroDivisorSplit) as info:
        (g - L.one()).inverse()
    exc = info.value
    assert exc.level == 1
    lo, hi = exc.factors
    # the two discovered factors multiply back to x^2 - 1
    assert _poly_mul(QQ, list(lo), list(hi)) == [QQ.rational(c).form for c in (-1, 0, 1)]


def test_common_tower_merges_extensions():
    K = QQ.extend([-2, 0, 1])
    assert common_tower(QQ, K) is K
    assert common_tower(K, QQ) is K
    assert common_tower(K, K) is K
    M = QQ.extend([-3, 0, 1])
    with pytest.raises(DomainViolation):
        common_tower(K, M)
    twin = QQ.extend([-2, 0, 1])  # equal to K, another object
    assert common_tower(K, twin) is K and common_tower(twin, K) is twin
    # equality lifts through compatible towers and is False across others
    assert K.gen() == twin.gen() and K.rational(2) == QQ.rational(2) == 2
    assert K.gen() != M.gen() and K.rational(2) != M.rational(3)
    assert not (K.rational(2) == M.rational(2))


def _qq(coeffs):
    """The polynomial over QQ with these rational coefficients: their forms."""
    return [QQ.coerce(c).form for c in coeffs]


def _forms(cs):
    return [c.form for c in cs]


def test_poly_helpers():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1 up to normalization
    g = _poly_gcd(QQ, _qq([-1, 0, 1]), _qq([1, -2, 1]))
    assert _fractions(g) == [Fraction(-1), Fraction(1)]
    q, r = _poly_divmod(QQ, _qq([-1, 0, 1]), _qq([1, 1]))
    assert all(not terms for _, terms in r)
    sf = _fractions(_poly_squarefree(QQ, _qq([1, -2, 1])))  # (x-1)^2 -> x - 1
    assert [c / sf[-1] for c in sf] == [Fraction(-1), Fraction(1)]


def test_extension_degree_validation():
    with pytest.raises(DomainViolation):
        QQ.extend([1])  # constant is not a minimal polynomial
    with pytest.raises(DomainViolation):
        QQ.extend([0, 0])  # zero leading coefficient
    root2 = QQ.extend([-2, 0, 1])
    with pytest.raises(DomainViolation, match="lie in the tower"):
        QQ.extend([root2.gen(), 0, 1])  # a coefficient one level too high
    assert QQ.extend([root2.rational(-3), 0, 1]).levels == QQ.extend([-3, 0, 1]).levels


# ---------------------------------------------------------------------------
# the polynomial kernels against independent references
#
# A polynomial is the list of its coefficients' forms.  Over QQ the
# reference is sympy (test-only).  Over extensions it is the element-wise
# polynomial code below, computed with ``FieldElement`` operators: the
# algorithms are the same, so the results must be equal.


def oracle_trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def oracle_divmod(a, b):
    b = oracle_trim(list(b))
    lead_inv = b[-1].inverse()
    r = oracle_trim(list(a))
    q = []
    zero = b[-1] - b[-1]
    while len(r) >= len(b):
        c = r[-1] * lead_inv
        d = len(r) - len(b)
        if len(q) < d + 1:
            q.extend([zero] * (d + 1 - len(q)))
        q[d] = q[d] + c
        for i, bc in enumerate(b):
            r[d + i] = r[d + i] - c * bc
        oracle_trim(r)
    return oracle_trim(q), r


def oracle_monic(a):
    a = oracle_trim(list(a))
    if not a:
        return a
    inv = a[-1].inverse()
    return oracle_trim([c * inv for c in a])


def oracle_gcd(a, b):
    r0, r1 = oracle_trim(list(a)), oracle_trim(list(b))
    while r1:
        _, r = oracle_divmod(r0, r1)
        r0, r1 = r1, r
    return oracle_monic(r0)


def oracle_squarefree_part(a):
    a = oracle_monic(a)
    da = oracle_trim([a[k] * k for k in range(1, len(a))])
    q, _ = oracle_divmod(a, oracle_gcd(a, da))
    return oracle_monic(q)


def oracle_eval(a, x):
    acc = x.tower.zero()
    for c in reversed(list(a)):
        acc = acc * x + c
    return acc


def _mul_polys(a, b):
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _seeded_poly(rng, tower):
    """A product of two to four factors drawn with repetition from a small
    pool, so gcds and squarefree parts are nontrivial; coefficients use every
    level of ``tower`` and mix in elements of shallower prefix towers."""
    pool = [[tower.rational(-Fraction(rng.randint(-3, 3), rng.randint(1, 2))), tower.one()]
            for _ in range(3)]
    x = tower.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for lv in range(1, tower.depth + 1):
        x = x + tower.gen(lv) * rng.randint(-2, 2)
    pool.append([x, QQ.one()])
    pool.append([QQ.rational(rng.randint(1, 5)), QQ.zero(), QQ.one()])
    out = [QQ.rational(rng.randint(1, 3))]
    for _ in range(rng.randint(2, 4)):
        out = _mul_polys(out, rng.choice(pool))
    return out


def _same(got, want):
    assert len(got) == len(want)
    assert all(x == y for x, y in zip(got, want))


K1 = QQ.extend([-2, 0, 1])
K2 = K1.extend([K1.rational(-3), K1.zero(), K1.one()])


@pytest.mark.parametrize("tower", [QQ, K1, K2])
@pytest.mark.parametrize("seed", range(6))
def test_poly_views_match_the_element_wise_oracle(tower, seed):
    rng = random.Random(seed)
    a, b = _seeded_poly(rng, tower), _seeded_poly(rng, tower)
    top = common_context([a, b])
    gcd = _poly_gcd(top, _forms(a), _forms(b))
    _same([FieldElement(top, c) for c in gcd], oracle_gcd(a, b))
    low = common_context([a])
    _same([FieldElement(low, c) for c in _poly_squarefree(low, _forms(a))],
          oracle_squarefree_part(a))
    for got, want in zip(_poly_divmod(top, _forms(a), _forms(b)), oracle_divmod(a, b)):
        _same([FieldElement(top, c) for c in got], want)


def _sympy_poly(cs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    terms = [sympy.Rational(c.to_fraction().numerator, c.to_fraction().denominator)
             for c in cs]
    return sympy.Poly(list(reversed(terms)), x, domain="QQ")


def _from_sympy(p):
    if p.is_zero:
        return []
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


def _fractions(forms):
    """The rationals with these forms."""
    return [FieldElement(QQ, f).to_fraction() for f in forms]


@pytest.mark.parametrize("seed", range(10))
def test_poly_views_match_sympy_over_qq(seed):
    rng = random.Random(100 + seed)
    a, b = _seeded_poly(rng, QQ), _seeded_poly(rng, QQ)
    sa, sb = _sympy_poly(a), _sympy_poly(b)
    gcd = _poly_gcd(QQ, _forms(a), _forms(b))
    assert _fractions(gcd) == _from_sympy(sa.gcd(sb).monic())
    assert _fractions(_poly_squarefree(QQ, _forms(a))) == _from_sympy(sa.sqf_part().monic())
    q, r = _poly_divmod(QQ, _forms(a), _forms(b))
    sq, sr = sa.div(sb)
    assert (_fractions(q), _fractions(r)) == (_from_sympy(sq), _from_sympy(sr))


@pytest.mark.parametrize("seed", range(10))
def test_rational_roots_match_sympy_over_qq(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(200 + seed)
    for a in (_seeded_poly(rng, QQ), [QQ.rational(c) for c in _large_root_poly(rng)]):
        want = sorted(Fraction(int(r.p), int(r.q))
                      for r in sympy.roots(_sympy_poly(a), filter="Q"))
        assert rational_roots(_forms(a)) == want


def _rational_part(x):
    """The coordinate of ``x`` at position 0, the rational one."""
    den, terms = x.form
    return Fraction(dict(terms).get(0, 0), den)


@pytest.mark.parametrize("tower", [K1, K2])
@pytest.mark.parametrize("seed", range(6))
def test_rational_roots_over_towers_match_the_checked_candidates(tower, seed):
    """Rational linear factors times one factor ``u (y - r) + w`` whose
    coefficients are irrational, where ``w`` is 0 (so ``r`` is a root) or a
    generator (so it is not): the roots are the old enumerator's roots of
    the rational coordinates, kept where the tower evaluates to zero."""
    rng = random.Random(400 + seed)
    for w in (tower.zero(), tower.gen()):
        u = tower.rational(rng.randint(1, 3))
        for lv in range(1, tower.depth + 1):
            u = u + tower.gen(lv) * rng.choice((-2, -1, 1, 2))
        r = tower.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        a, roots = [-u * r + w, u], {r.to_fraction()} if w.is_zero() else set()
        for _ in range(rng.randint(1, 3)):
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            roots.add(t)
            a = _mul_polys(a, [QQ.rational(-t), QQ.one()])
        candidates = _old_rational_poly_roots([_rational_part(c) for c in a])
        want = [t for t in candidates if oracle_eval(a, tower.rational(t)).is_zero()]
        assert rational_roots(_forms(a)) == want == sorted(roots)


@pytest.mark.parametrize("seed", range(10))
def test_charpoly_matches_sympy_over_qq(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(300 + seed)
    n = rng.randint(1, 5)
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]
    m = [[QQ.rational(q) for q in row] for row in rows]
    s = sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in row]
                      for row in rows])
    want = [Fraction(int(c.p), int(c.q))
            for c in reversed(s.charpoly(sympy.Symbol("x")).all_coeffs())]
    assert _fractions(linalg.charpoly(m)) == want


SPLIT = QQ.extend([-1, 0, 1])  # x^2 - 1: only a ring


@pytest.mark.parametrize("tower", [SPLIT, SPLIT.extend([-2, 0, 1])])
def test_poly_divmod_zero_divisor_reports_the_scalar_split(tower):
    """The divisor's lead ``x - 1`` sits at level 1; on the deeper tower the
    dividend reaches level 2, and the lead is inverted over that tower."""
    x = tower.gen(1)
    with pytest.raises(ZeroDivisorSplit) as info:
        (x - 1).inverse()
    want = info.value
    with pytest.raises(ZeroDivisorSplit) as info:
        _poly_divmod(tower, _forms([tower.one(), tower.gen(), tower.one()]),
                     _forms([tower.one(), x - 1]))
    got = info.value
    assert (got.level, got.factors, got.tower) == (want.level, want.factors, want.tower)


# ---------------------------------------------------------------------------
# the payload reference
#
# Before an element was its flat form, it was a *payload*: a ``Fraction`` at
# level 0 and, at level k, the tuple of its ``deg(m_k)`` coordinates over
# level k - 1, each a payload.  The kernels below are that arithmetic, kept
# as the reference for the form kernels: recursive sums, a product that is
# the schoolbook product reduced by a polynomial division by the minimal
# polynomial (no fold map), and an inverse by the extended Euclid, with the
# polynomial layer they share.  ``to_payload`` and ``to_form`` convert at a
# given level; ``from_payload`` is how the tests build an element from nested
# coordinates.


def to_payload(tower, level, form):
    """The payload at ``level`` of the element with ``form``."""
    den, terms = form
    coords = dict(terms)

    def nest(level, base):
        if level == 0:
            return Fraction(coords.get(base, 0), den)
        step = tower.sizes[level - 1]
        return tuple(nest(level - 1, base + t * step) for t in range(tower.degree(level)))

    return nest(level, 0)


def to_form(tower, level, payload):
    """The form of the element whose payload at ``level`` is ``payload``."""
    coords = []

    def unfold(level, p, base):
        if level == 0:
            if p:
                coords.append((base, p))
            return
        for t, c in enumerate(p):
            unfold(level - 1, c, base + t * tower.sizes[level - 1])

    unfold(level, payload, 0)
    den = math.lcm(*[q.denominator for _, q in coords])
    return den, tuple((pos, q.numerator * (den // q.denominator)) for pos, q in coords)


def from_payload(tower, level, payload):
    """The element of ``tower`` whose payload at ``level`` is ``payload``."""
    return FieldElement(tower, to_form(tower, level, payload))


@functools.lru_cache(maxsize=None)
def p_minpoly(tower, level):
    """The minimal polynomial adjoined at ``level``, as payloads one level down."""
    return tuple(to_payload(tower, level - 1, c) for c in tower.levels[level - 1])


def p_zero(tower, level):
    if level == 0:
        return Fraction(0)
    return tuple(p_zero(tower, level - 1) for _ in range(tower.degree(level)))


def p_lift(tower, level_from, level_to, p):
    while level_from < level_to:
        level_from += 1
        p = (p,) + tuple(p_zero(tower, level_from - 1) for _ in range(tower.degree(level_from) - 1))
    return p


def p_is_zero(p):
    return p == 0 if isinstance(p, Fraction) else all(p_is_zero(c) for c in p)


def p_add(tower, level, a, b):
    if level == 0:
        return a + b
    return tuple(p_add(tower, level - 1, x, y) for x, y in zip(a, b))


def p_neg(tower, level, a):
    return -a if level == 0 else tuple(p_neg(tower, level - 1, x) for x in a)


def p_sub(tower, level, a, b):
    return p_add(tower, level, a, p_neg(tower, level, b))


def p_mul(tower, level, a, b):
    if level == 0:
        return a * b
    deg, below = tower.degree(level), level - 1
    prod = [p_zero(tower, below)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = p_add(tower, below, prod[i + j], p_mul(tower, below, x, y))
    reduced = p_poly_mod(tower, below, prod, list(p_minpoly(tower, level)))
    return tuple(reduced + [p_zero(tower, below)] * (deg - len(reduced)))


def p_inv(tower, level, a):
    if p_is_zero(a):
        raise NotInvertible("division by zero")
    if level == 0:
        return 1 / a
    below, deg, m = level - 1, tower.degree(level), list(p_minpoly(tower, level))
    r0, r1 = m, p_poly_trim(list(a))
    t0, t1 = [], [p_lift(tower, 0, below, Fraction(1))]
    while r1:
        q, r = p_poly_divmod(tower, below, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, p_poly_sub(tower, below, t0, p_poly_mul(tower, below, q, t1))
    if len(r0) == 1:
        lead_inv = p_inv(tower, below, r0[0])
        inv = p_poly_mod(tower, below, [p_mul(tower, below, c, lead_inv) for c in t0], m)
        return tuple(inv + [p_zero(tower, below)] * (deg - len(inv)))
    g = p_poly_monic(tower, below, r0)
    h, _ = p_poly_divmod(tower, below, m, g)
    raise ZeroDivisorSplit(
        "zero divisor at tower level %d: minimal polynomial factors as a "
        "product of degrees %d and %d" % (level, len(g) - 1, len(h) - 1),
        level, (tuple(g), tuple(h)), tower)


def p_poly_trim(cs):
    while cs and p_is_zero(cs[-1]):
        cs.pop()
    return cs


def p_poly_sub(tower, level, a, b):
    zero = p_zero(tower, level)
    n = max(len(a), len(b))
    return p_poly_trim([p_sub(tower, level, a[i] if i < len(a) else zero,
                              b[i] if i < len(b) else zero) for i in range(n)])


def p_poly_mul(tower, level, a, b):
    if not a or not b:
        return []
    out = [p_zero(tower, level)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = p_add(tower, level, out[i + j], p_mul(tower, level, x, y))
    return p_poly_trim(out)


def p_poly_divmod(tower, level, a, b):
    b = p_poly_trim(list(b))
    if not b:
        raise NotInvertible("polynomial division by zero")
    lead_inv = p_inv(tower, level, b[-1])
    r, q = p_poly_trim(list(a)), []
    while len(r) >= len(b):
        c = p_mul(tower, level, r[-1], lead_inv)
        d = len(r) - len(b)
        q.extend([p_zero(tower, level)] * (d + 1 - len(q)))
        q[d] = p_add(tower, level, q[d], c)
        for i, bc in enumerate(b):
            r[d + i] = p_sub(tower, level, r[d + i], p_mul(tower, level, c, bc))
        p_poly_trim(r)
    return p_poly_trim(q), r


def p_poly_mod(tower, level, a, m):
    return p_poly_divmod(tower, level, a, m)[1]


def p_poly_monic(tower, level, a):
    a = p_poly_trim(list(a))
    if not a:
        return a
    inv = p_inv(tower, level, a[-1])
    return p_poly_trim([p_mul(tower, level, c, inv) for c in a])


def p_poly_gcd(tower, level, a, b):
    r0, r1 = p_poly_trim(list(a)), p_poly_trim(list(b))
    while r1:
        r0, r1 = r1, p_poly_mod(tower, level, r0, r1)
    return p_poly_monic(tower, level, r0)


def p_poly_squarefree(tower, level, a):
    a = p_poly_monic(tower, level, a)
    da = [p_mul(tower, level, a[k], p_lift(tower, 0, level, Fraction(k))) for k in range(1, len(a))]
    q, _ = p_poly_divmod(tower, level, a, p_poly_gcd(tower, level, a, da))
    return p_poly_monic(tower, level, q)


def p_encode(tower, level, p):
    """The JSON value of the payload ``p`` at ``level``: a rational string
    when only its rational coordinate can be nonzero, else nested lists."""
    def nested(p):
        return serialize.fraction_to_str(p) if isinstance(p, Fraction) else [nested(c) for c in p]

    if all(pos == 0 for pos, _ in to_form(tower, level, p)[1]):
        while isinstance(p, tuple):
            p = p[0]
        return serialize.fraction_to_str(p)
    return nested(p)


# ---------------------------------------------------------------------------
# scalar operators against lifting both operands first
#
# The oracle pairs two operands the long way: it lifts both payloads to the
# common tower and the higher level, then runs the payload kernel.  The
# operators must give the same tower object and form.

TWIN = QQ.extend([-2, 0, 1])  # equal to K1, another object


def _random_payload(rng, tower, level):
    if level == 0:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
    return tuple(_random_payload(rng, tower, level - 1) for _ in range(tower.degree(level)))


def _operands(rng):
    out = []
    for tower in (QQ, K1, TWIN, K2):
        for level in range(tower.depth + 1):
            out.append(from_payload(tower, level, _random_payload(rng, tower, level)))
    return out + [0, 3, Fraction(-2, 5)]


KERNELS = {"+": p_add, "-": p_sub, "*": p_mul}
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _oracle(op, a, b):
    if not isinstance(b, FieldElement):
        b = a.tower.rational(b)
    tower = common_tower(a.tower, b.tower)
    level = max(a.level, b.level)
    pa, pb = to_payload(tower, level, a.form), to_payload(tower, level, b.form)
    if op == "==":
        return pa == pb
    return FieldElement(tower, to_form(tower, level, KERNELS[op](tower, level, pa, pb)))


def _same_element(got, want):
    assert isinstance(got, FieldElement)
    assert (got.tower, got.form) == (want.tower, want.form)
    assert got.tower is want.tower


@pytest.mark.parametrize("seed", range(3))
def test_scalar_operators_match_lifting_both_operands(seed):
    rng = random.Random(seed)
    operands = _operands(rng)
    for a in operands:
        if not isinstance(a, FieldElement):
            continue
        for b in operands:
            for op, fn in OPS.items():
                _same_element(fn(a, b), _oracle(op, a, b))
                if not isinstance(b, FieldElement):  # the reflected operators
                    _same_element(fn(b, a), _oracle(op, a.tower.rational(b), a))
            with pytest.raises(TypeError):  # elements do not divide
                a / b
            assert (a == b) is _oracle("==", a, b)
            if not isinstance(b, FieldElement):
                assert (b == a) is _oracle("==", a, b)


def test_scalar_equality_is_false_across_incompatible_towers():
    other = QQ.extend([-3, 0, 1])
    for a, b in ((K1.rational(2), other.rational(2)), (K1.gen(), other.gen()),
                 (K2.zero(), other.zero())):
        assert a != b and not (a == b)
    with pytest.raises(DomainViolation):
        K1.gen() + other.gen()


# ---------------------------------------------------------------------------
# every kernel against the payload reference, under Hypothesis
#
# Towers of depth 0-2 and a cubic over a quadratic, and three towers whose
# adjoined polynomials factor, so that inverses and polynomial divisions meet
# zero divisors: x**2 - 1 at level 1 (alone and under a quadratic) and
# y**2 - 2 over Q(sqrt 2) at level 2.  Elements are drawn at every level,
# zero among them, and scaled known zero divisors.

CUBIC_OVER_QUADRATIC = K1.extend([-1, -K1.gen(), 0, 1])  # y**3 - sqrt(2) y - 1
SPLIT_LOW = QQ.extend([-1, 0, 1])
SPLIT_UNDER = SPLIT_LOW.extend([-2, 0, 1])
SPLIT_HIGH = K1.extend([-2, 0, 1])
ORACLE_TOWERS = [
    (QQ, []), (K1, []), (TWIN, []), (K2, []), (CUBIC_OVER_QUADRATIC, []),
    (SPLIT_LOW, [SPLIT_LOW.gen() - 1, SPLIT_LOW.gen() + 1]),
    (SPLIT_UNDER, [SPLIT_UNDER.gen(1) - 1, (SPLIT_UNDER.gen(1) + 1) * SPLIT_UNDER.gen(2)]),
    (SPLIT_HIGH, [SPLIT_HIGH.gen(2) - SPLIT_HIGH.gen(1), SPLIT_HIGH.gen(2) + SPLIT_HIGH.gen(1)]),
]

# Hypothesis' caches go here, not into the checkout; the directory goes at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")


def _hypothesis():
    """Hypothesis and its strategies module, with the caches redirected."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
    return hypothesis, hypothesis.strategies


def _element_strategy(st, towers):
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)

    @st.composite
    def payloads(draw, tower, level):
        if level == 0:
            return draw(rationals)
        return tuple(draw(payloads(tower, level - 1)) for _ in range(tower.degree(level)))

    @st.composite
    def elements(draw, case):
        tower, zero_divisors = case
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return tower.zero()
        if kind == 1 and zero_divisors:
            return draw(st.sampled_from(zero_divisors)) * draw(rationals.filter(bool))
        level = tower.depth - draw(st.integers(0, tower.depth))  # the top level first
        return from_payload(tower, level, draw(payloads(tower, level)))

    return lambda: st.sampled_from(towers).flatmap(elements)


def _compatible(a, b):
    return a.depth <= b.depth and b.levels[:a.depth] == a.levels or \
        b.depth <= a.depth and a.levels[:b.depth] == b.levels


def _lowest_level(x):
    """The lowest level at which the payload round trip keeps ``x``."""
    return next(lv for lv in range(x.tower.depth + 1)
                if to_form(x.tower, lv, to_payload(x.tower, lv, x.form)) == x.form)


def _same_outcome(got, want):
    """Run two thunks: the same form and tower, or the same exception (for a
    ``ZeroDivisorSplit`` the same level, factors and tower)."""
    try:
        tower, level, payload = want()
    except (ZeroDivisorSplit, NotInvertible) as exc:
        with pytest.raises(type(exc)) as info:
            got()
        assert str(info.value) == str(exc)
        if isinstance(exc, ZeroDivisorSplit):
            assert info.value.level == exc.level and info.value.tower is exc.tower
            assert info.value.factors == tuple(
                tuple(to_form(exc.tower, exc.level - 1, c) for c in f) for f in exc.factors)
        return
    result = got()
    if isinstance(result, FieldElement):
        assert result.tower is tower and result.form == to_form(tower, level, payload)
    else:  # a polynomial: the forms of its coefficients
        assert result == [to_form(tower, level, p) for p in payload]


def _check_element(a):
    tower, level = a.tower, a.level
    assert level == _lowest_level(a)
    pa = to_payload(tower, level, a.form)
    assert a.is_zero() == p_is_zero(pa)
    assert (-a).form == to_form(tower, level, p_neg(tower, level, pa))
    _same_outcome(a.inverse, lambda: (tower, level, p_inv(tower, level, pa)))
    if all(pos == 0 for pos, _ in a.form[1]):
        assert a.to_fraction() == (pa if level == 0 else _rational_part(a))
    else:
        with pytest.raises(DomainViolation):
            a.to_fraction()
    enc = serialize.encode_element(a)
    assert serialize.dumps({"x": enc}) == serialize.dumps(
        {"x": p_encode(tower, tower.depth, p_lift(tower, level, tower.depth, pa))})
    back = serialize.decode_element(tower, enc)
    assert back.form == a.form and back.tower is tower


def _check_pair(a, b):
    if isinstance(b, FieldElement) and not _compatible(a.tower, b.tower):
        assert not a == b and a != b
        with pytest.raises(DomainViolation):
            a * b
        return
    bb = b if isinstance(b, FieldElement) else a.tower.rational(b)
    tower = a.tower if bb.tower is a.tower else common_tower(a.tower, bb.tower)
    level = max(a.level, bb.level)
    pa, pb = to_payload(tower, level, a.form), to_payload(tower, level, bb.form)
    for op, fn in OPS.items():
        result = fn(a, b)
        assert result.tower is tower
        assert result.form == to_form(tower, level, KERNELS[op](tower, level, pa, pb))
    assert (a == b) is (pa == pb)


def test_scalar_kernels_match_the_payload_reference():
    """``+``, ``-``, ``*``, ``==`` (across towers too), ``inverse`` with its
    ``ZeroDivisorSplit`` level and factors, ``is_zero``, ``to_fraction``,
    the derived level and the encoded bytes, derandomized; and the encoded
    minimal polynomials of every tower."""
    hypothesis, st = _hypothesis()
    elements = _element_strategy(st, ORACLE_TOWERS)
    scalars = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=5, min_value=-3,
                                                         max_value=3))

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(elements(), st.one_of(elements(), scalars))
    def check(a, b):
        _check_element(a)
        _check_pair(a, b)

    check()
    for tower, _ in ORACLE_TOWERS:
        want = [[p_encode(tower, k - 1, c) for c in p_minpoly(tower, k)]
                for k in range(1, tower.depth + 1)]
        assert serialize.encode_tower(tower) == {"extensions": want}


def test_poly_views_match_the_payload_polynomial_layer():
    """``_poly_divmod`` and ``_poly_squarefree`` on drawn polynomials over
    one tower, against the payload polynomial layer at their common level:
    the same coefficient forms, or the same exception."""
    hypothesis, st = _hypothesis()

    @st.composite
    def polys(draw):
        case = draw(st.sampled_from(ORACLE_TOWERS))
        elements = _element_strategy(st, [case])
        a = draw(st.lists(elements(), min_size=1, max_size=4))
        b = draw(st.lists(elements(), min_size=1, max_size=3))
        if draw(st.integers(0, 3)) == 0:
            b[-1] = case[0].one()  # a monic divisor
        return a, b

    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(polys())
    def check(case):
        a, b = case
        tower, level = common_context([a, b]), max(x.level for x in a + b)
        pa, pb = ([to_payload(tower, level, c.form) for c in p] for p in (a, b))
        fa, fb = _forms(a), _forms(b)
        _same_outcome(lambda: _poly_divmod(tower, fa, fb)[0],
                      lambda: (tower, level, p_poly_divmod(tower, level, pa, pb)[0]))
        _same_outcome(lambda: _poly_divmod(tower, fa, fb)[1],
                      lambda: (tower, level, p_poly_divmod(tower, level, pa, pb)[1]))
        top, lv = common_context([a]), max(x.level for x in a)
        _same_outcome(lambda: _poly_squarefree(top, fa),
                      lambda: (top, lv, p_poly_squarefree(
                          top, lv, [to_payload(top, lv, c.form) for c in a])))

    check()


# ---------------------------------------------------------------------------
# ``_mul`` reduces by the monic minimal polynomial
#
# The reference is the payload product: the schoolbook product followed by a
# polynomial division by the minimal polynomial.

CUBIC = QQ.extend([-1, -1, 0, 1])  # x^3 - x - 1
OVER_CUBIC = CUBIC.extend([CUBIC.rational(-1), CUBIC.gen(), CUBIC.one()])  # y^2 + r y - 1
# z^2 + z/2 + r + y: its fold map is built through the two maps below it
DEPTH3 = OVER_CUBIC.extend([OVER_CUBIC.gen(1) + OVER_CUBIC.gen(2),
                            OVER_CUBIC.rational(Fraction(1, 2)), OVER_CUBIC.one()])


# ``FieldTower(K2.levels)`` equals ``K2`` but builds its own fold maps
@pytest.mark.parametrize("tower", [K1, CUBIC, K2, OVER_CUBIC, DEPTH3, FieldTower(K2.levels)])
def test_mul_matches_the_poly_mod_reduction(tower):
    rng = random.Random(math.prod(tower.degree(k) for k in range(1, tower.depth + 1)))
    level = tower.depth
    zero = p_zero(tower, level)
    samples = [zero] + [_random_payload(rng, tower, level) for _ in range(40)]
    samples += [(p[0],) + zero[1:] for p in samples[1:4]]  # elements of the level below
    assert any(not p_is_zero(p) and any(p_is_zero(c) for c in p)
               for p in samples)  # zero coordinates included
    for a in samples:
        for b in samples[:12]:
            got = _mul(tower, to_form(tower, level, a), to_form(tower, level, b))
            assert got == to_form(tower, level, p_mul(tower, level, a, b))


def test_fold_maps_are_shared_with_every_extension():
    """An extension reuses the fold maps of the levels it shares with its
    base, built or not yet; a sibling extension has its own top map."""
    base = CUBIC.extend([CUBIC.rational(-1), CUBIC.gen(), CUBIC.one()])
    first = base.extend([base.gen(2), 0, 1])
    second = base.extend([base.gen(1), 0, 1])
    first.gen(3) * first.gen(3)  # builds the maps of levels 1, 2 and 3 of ``first``
    assert all(first.folds[k] is base.folds[k] and base.folds[k] for k in range(2))
    assert all(second.folds[k] is base.folds[k] for k in range(2)) and not second.folds[2]
    assert second.gen(3) * second.gen(3) == -second.gen(1)


def test_every_fold_map_of_a_depth4_reduction_is_built_once(monkeypatch):
    """Reducing the seed-1 rank-5, pole-2 nilpotent-lead input extends one
    tower four times; each level's map is built once, not once more per
    extension above it."""
    from mcred import checks, field, reduction

    built, build = [], field._build_fold_map

    def spy(tower, level):
        built.append((level, tower.levels[:level]))
        return build(tower, level)

    monkeypatch.setattr(field, "_build_fold_map", spy)
    reduction.reduce(checks.random_connection(random.Random(1), 5, 2, kind="nilpotent_lead"))
    assert sorted(level for level, _ in built) == [1, 2, 3, 4]
    assert len(set(built)) == len(built)


# -- level-1 inverses: fraction-free elimination against the extended Euclid --


def _digits(rng, digits):
    """A random nonzero rational with ``digits``-digit numerator and denominator."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    return Fraction(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _same_inverse(tower, a):
    """``_inv`` and the Euclid path agree on the level-1 payload ``a``: the
    same form, or the same ``ZeroDivisorSplit``; returns whether ``a`` was
    invertible."""
    a = to_form(tower, 1, a)
    try:
        want = _inv_by_euclid(tower, 1, a)
    except ZeroDivisorSplit as exc:
        with pytest.raises(ZeroDivisorSplit) as info:
            _inv(tower, a)
        assert (info.value.level, info.value.factors) == (exc.level, exc.factors)
        return False
    got = _inv(tower, a)
    assert got == want
    assert _mul(tower, a, got) == tower.one().form
    return True


@pytest.mark.parametrize("deg", [2, 3, 4, 6, 8, 10, 12, 14])
def test_level_one_inverse_matches_the_euclid_path(deg):
    rng = random.Random(deg)
    digits = 30 if deg <= 4 else 3  # the Euclid oracle takes minutes at 30 digits
    tower = QQ.extend([_digits(rng, digits) for _ in range(deg)] + [1])
    for _ in range(4):
        a = tuple(_digits(rng, digits) if rng.random() < 0.8 else Fraction(0)
                  for _ in range(deg))
        if any(a):
            assert _same_inverse(tower, a)


@pytest.mark.parametrize("minpoly, divisors", [
    ([-6, -2, 3, 1], [[3, 1], [-2, 0, 1]]),            # (x**2 - 2)(x + 3)
    ([0, -1, 0, 1], [[0, 1], [-1, 1], [0, 1, 1]]),     # x (x - 1)(x + 1)
    ([4, 0, -5, 0, 1], [[-1, 0, 1], [2, 1], [-2, 1, 1]]),  # (x**2 - 1)(x**2 - 4)
])
def test_level_one_inverse_over_a_reducible_minimal_polynomial(minpoly, divisors):
    tower = QQ.extend(minpoly)
    deg = tower.degree(1)
    rng = random.Random(len(minpoly))
    units = [tuple(Fraction(int(i == j)) for i in range(deg)) for j in range(1, deg)]
    units += [tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg)) for _ in range(8)]
    zero_divisors = [tuple(Fraction(c) for c in d + [0] * (deg - len(d))) for d in divisors]
    assert not any(_same_inverse(tower, a) for a in zero_divisors)
    assert any(_same_inverse(tower, a) for a in units if any(a))


def _degree14_files(tmp_path, seed=14, deg=14, digits=30):
    """A rank-1 connection and a constant rank-1 gauge over one degree-14
    extension, every minimal-polynomial coefficient and coordinate a random
    ``digits``-digit rational."""
    rng = random.Random(seed)
    tower = QQ.extend([_digits(rng, digits) for _ in range(deg)] + [1])

    def element():
        return from_payload(tower, 1, tuple(_digits(rng, digits) for _ in range(deg)))

    c = Connection(LaurentMatrix(tower, [[LaurentSeries(tower, {-1: element()})]]))
    g = LaurentMatrix(tower, [[LaurentSeries(tower, {0: element()})]])
    cpath, gpath = tmp_path / "c.json", tmp_path / "g.json"
    cpath.write_text(serialize.dumps(serialize.encode_connection(c)))
    gpath.write_text(serialize.dumps(serialize.encode_matrix(g)))
    return str(cpath), str(gpath)


def test_degree14_gauge_with_30_digit_coefficients_runs_in_seconds(tmp_path):
    # the extended Euclid took 38 s on this file (2-core x86-64 VM, Python
    # 3.11); the elimination takes about 1.5 s end to end there
    cpath, gpath = _degree14_files(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(mcred.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "mcred", "gauge", cpath, gpath], env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 3.8, f"mcred gauge took {elapsed:.1f} s"
    moved = serialize.decode_connection(serialize.loads(done.stdout))
    assert moved.tower.degree(1) == 14 and moved.pole_order == 1
