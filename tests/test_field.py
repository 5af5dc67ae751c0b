import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import mcred
from mcred import linalg, serialize
from mcred.connection import Connection
from mcred.errors import DomainViolation, ZeroDivisorSplit
from mcred.field import (
    FieldElement,
    FieldTower,
    _add,
    _inv,
    _inv_by_euclid,
    _mul,
    _payload_is_zero,
    _poly_gcd,
    _poly_mod,
    _poly_mul,
    _poly_payloads,
    _sub,
    _zero_payload,
    common_tower,
    poly_divmod,
    poly_squarefree_part,
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
    assert _poly_mul(QQ, 0, list(lo), list(hi)) == [Fraction(-1), Fraction(0), Fraction(1)]


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
    return [QQ.coerce(c) for c in coeffs]


def test_poly_helpers():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1 up to normalization
    a, b = ([c.payload for c in _qq(cs)] for cs in ([-1, 0, 1], [1, -2, 1]))
    g = _poly_gcd(QQ, 0, a, b)
    assert [c / g[-1] for c in g] == [Fraction(-1), Fraction(1)]
    q, r = poly_divmod(_qq([-1, 0, 1]), _qq([1, 1]))
    assert all(c.is_zero() for c in r)
    sf = poly_squarefree_part(_qq([1, -2, 1]))  # (x-1)^2 -> x - 1
    lead = sf[-1].to_fraction()
    assert [c.to_fraction() / lead for c in sf] == [Fraction(-1), Fraction(1)]


def test_extension_degree_validation():
    with pytest.raises(DomainViolation):
        QQ.extend([1])  # constant is not a minimal polynomial
    with pytest.raises(DomainViolation):
        QQ.extend([0, 0])  # zero leading coefficient


# ---------------------------------------------------------------------------
# the polynomial views against independent references
#
# Over QQ the reference is sympy (test-only).  Over extensions it is the
# element-wise polynomial code below, computed with ``FieldElement``
# operators: the algorithms are the same, so the results must be equal.


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
    acc = x.tower.zero(x.level)
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
    top, level, (pa, pb) = _poly_payloads([a, b])
    gcd = _poly_gcd(top, level, pa, pb)
    _same([FieldElement(top, level, c) for c in gcd], oracle_gcd(a, b))
    _same(poly_squarefree_part(a), oracle_squarefree_part(a))
    for got, want in zip(poly_divmod(a, b), oracle_divmod(a, b)):
        _same(got, want)


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


def _fractions(cs):
    return [c.to_fraction() for c in cs]


@pytest.mark.parametrize("seed", range(10))
def test_poly_views_match_sympy_over_qq(seed):
    rng = random.Random(100 + seed)
    a, b = _seeded_poly(rng, QQ), _seeded_poly(rng, QQ)
    sa, sb = _sympy_poly(a), _sympy_poly(b)
    gcd = _poly_gcd(QQ, 0, [c.payload for c in a], [c.payload for c in b])
    assert gcd == _from_sympy(sa.gcd(sb).monic())
    assert _fractions(poly_squarefree_part(a)) == _from_sympy(sa.sqf_part().monic())
    q, r = poly_divmod(a, b)
    sq, sr = sa.div(sb)
    assert (_fractions(q), _fractions(r)) == (_from_sympy(sq), _from_sympy(sr))


@pytest.mark.parametrize("seed", range(10))
def test_rational_roots_match_sympy_over_qq(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(200 + seed)
    for a in (_seeded_poly(rng, QQ), [QQ.rational(c) for c in _large_root_poly(rng)]):
        want = sorted(Fraction(int(r.p), int(r.q))
                      for r in sympy.roots(_sympy_poly(a), filter="Q"))
        assert rational_roots(a) == want


def _rational_part(x):
    """The coordinate of ``x`` at position 0, the rational one."""
    p = x.payload
    while isinstance(p, tuple):
        p = p[0]
    return p


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
        assert rational_roots(a) == want == sorted(roots)


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
    dividend reaches level 2, so the lead is lifted before it is inverted."""
    x = tower.gen(1)
    with pytest.raises(ZeroDivisorSplit) as info:
        (x - 1).inverse()
    want = info.value
    with pytest.raises(ZeroDivisorSplit) as info:
        poly_divmod([tower.one(), tower.gen(), tower.one()], [tower.one(), x - 1])
    got = info.value
    assert (got.level, got.factors, got.tower) == (want.level, want.factors, want.tower)


# ---------------------------------------------------------------------------
# scalar operators against lifting both operands first
#
# The oracle pairs two operands the long way: it lifts both into new
# elements at the deeper tower and the higher level with ``_lifted``, then
# runs the payload kernel.  The operators must give the same tower object,
# level and payload.

TWIN = QQ.extend([-2, 0, 1])  # equal to K1, another object


def _random_payload(rng, tower, level):
    if level == 0:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
    return tuple(_random_payload(rng, tower, level - 1) for _ in range(tower.degree(level)))


def _operands(rng):
    out = []
    for tower in (QQ, K1, TWIN, K2):
        for level in range(tower.depth + 1):
            out.append(FieldElement(tower, level, _random_payload(rng, tower, level)))
    return out + [0, 3, Fraction(-2, 5)]


def _oracle(op, a, b):
    if not isinstance(b, FieldElement):
        b = a.tower.rational(b)
    tower = common_tower(a.tower, b.tower)
    level = max(a.level, b.level)
    pa, pb = a._lifted(tower, level).payload, b._lifted(tower, level).payload
    if op == "==":
        return pa == pb
    if op == "/":
        return FieldElement(tower, level, _mul(tower, level, pa, _inv(tower, level, pb)))
    kernel = {"+": _add, "-": _sub, "*": _mul}[op]
    return FieldElement(tower, level, kernel(tower, level, pa, pb))


OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _same_element(got, want):
    assert isinstance(got, FieldElement)
    assert (got.tower, got.level, got.payload) == (want.tower, want.level, want.payload)
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
                if op == "/" and (b == 0 if not isinstance(b, FieldElement) else b.is_zero()):
                    continue
                _same_element(fn(a, b), _oracle(op, a, b))
                if not isinstance(b, FieldElement):  # the reflected operators
                    if op == "/":  # none for division: a number over an element is refused
                        with pytest.raises(TypeError):
                            fn(b, a)
                        continue
                    _same_element(fn(b, a), _oracle(op, a.tower.rational(b), a))
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
# ``_mul`` reduces by the monic minimal polynomial
#
# The oracle is the schoolbook product followed by ``_poly_mod`` (a
# polynomial division by the minimal polynomial).

CUBIC = QQ.extend([-1, -1, 0, 1])  # x^3 - x - 1
OVER_CUBIC = CUBIC.extend([CUBIC.rational(-1), CUBIC.gen(), CUBIC.one()])  # y^2 + r y - 1
# z^2 + z/2 + r + y: its fold map is built through the two maps below it
DEPTH3 = OVER_CUBIC.extend([OVER_CUBIC.gen(1) + OVER_CUBIC.gen(2),
                            OVER_CUBIC.rational(Fraction(1, 2)), OVER_CUBIC.one()])


def _mul_by_poly_mod(tower, level, a, b):
    if level == 0:
        return a * b
    deg, below = tower.degree(level), level - 1
    prod = [_zero_payload(tower, below)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = _add(tower, below, prod[i + j], _mul_by_poly_mod(tower, below, x, y))
    reduced = _poly_mod(tower, below, prod, list(tower.levels[below]))
    return tuple(reduced + [_zero_payload(tower, below)] * (deg - len(reduced)))


# ``FieldTower(K2.levels)`` equals ``K2`` but builds its own fold maps
@pytest.mark.parametrize("tower", [K1, CUBIC, K2, OVER_CUBIC, DEPTH3, FieldTower(K2.levels)])
def test_mul_matches_the_poly_mod_reduction(tower):
    rng = random.Random(math.prod(tower.degree(k) for k in range(1, tower.depth + 1)))
    level = tower.depth
    zero = _zero_payload(tower, level)
    samples = [zero] + [_random_payload(rng, tower, level) for _ in range(40)]
    samples += [(p[0],) + zero[1:] for p in samples[1:4]]  # elements of the level below
    assert any(not _payload_is_zero(p) and any(_payload_is_zero(c) for c in p)
               for p in samples)  # zero coordinates included
    for a in samples:
        for b in samples[:12]:
            assert _mul(tower, level, a, b) == _mul_by_poly_mod(tower, level, a, b)


# -- level-1 inverses: fraction-free elimination against the extended Euclid --


def _digits(rng, digits):
    """A random nonzero rational with ``digits``-digit numerator and denominator."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    return Fraction(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _same_inverse(tower, a):
    """``_inv`` and the Euclid path agree on ``a``: the same payload, or the
    same ``ZeroDivisorSplit``; returns whether ``a`` was invertible."""
    try:
        want = _inv_by_euclid(tower, 1, a)
    except ZeroDivisorSplit as exc:
        with pytest.raises(ZeroDivisorSplit) as info:
            _inv(tower, 1, a)
        assert (info.value.level, info.value.factors) == (exc.level, exc.factors)
        return False
    got = _inv(tower, 1, a)
    assert got == want and all(type(q) is Fraction for q in got)
    one = _mul(tower, 1, a, got)
    assert one == (Fraction(1),) + (Fraction(0),) * (tower.degree(1) - 1)
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
        return FieldElement(tower, 1, tuple(_digits(rng, digits) for _ in range(deg)))

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
