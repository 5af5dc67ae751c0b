import math
import random
import tempfile
from fractions import Fraction

import pytest

from mcred import checks, leading, linalg, reduction, serialize, series, sl2
from mcred.connection import Connection
from mcred.errors import DomainViolation, EngineError, ScalarLeadingTerm
from mcred.field import FieldTower, common_context, common_tower
from mcred.leading import (
    commutes,
    eigen_block_split,
    jordan_chevalley,
    rational_roots,
    sibuya_normalize,
)
from mcred.matrices import LaurentMatrix, matrix_exp
from mcred.series import INF, LaurentSeries
from test_matrices import _mat_mul

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def grid(rows):
    return [[QQ.coerce(x) for x in row] for row in rows]


def _grids_equal(a, b):
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_jordan_chevalley_classical_jordan_block():
    m = grid([[2, 1], [0, 2]])
    jp = jordan_chevalley(m)
    assert _grids_equal(jp.semisimple, grid([[2, 0], [0, 2]]))
    assert _grids_equal(jp.nilpotent, grid([[0, 1], [0, 0]]))


def test_jordan_chevalley_distinct_eigenvalues_is_semisimple():
    m = grid([[1, 1], [0, 2]])
    jp = jordan_chevalley(m)
    assert all(x.is_zero() for row in jp.nilpotent for x in row)
    assert _grids_equal(jp.semisimple, m)


def test_jordan_chevalley_needs_no_eigenvalues():
    # x^2 - 2 is irreducible over the rationals; the matrix is semisimple
    # and the decomposition must see that without adjoining anything
    m = grid([[0, 1], [2, 0]])
    jp = jordan_chevalley(m)
    assert all(x.is_zero() for row in jp.nilpotent for x in row)


def test_jordan_chevalley_parts_commute_and_sum():
    m = grid([[3, 1, 0], [0, 3, 0], [0, 4, 7]])
    jp = jordan_chevalley(m)
    s, n = jp.semisimple, jp.nilpotent
    total = [[s[i][j] + n[i][j] for j in range(3)] for i in range(3)]
    assert _grids_equal(total, m)
    assert _grids_equal(_mat_mul(s, n), _mat_mul(n, s))
    # nilpotent part actually vanishes when raised to the size
    power = n
    for _ in range(2):
        power = _mat_mul(power, n)
    assert all(x.is_zero() for row in power for x in row)
    # the semisimple part of a semisimple matrix is itself
    again = jordan_chevalley(s)
    assert all(x.is_zero() for row in again.nilpotent for x in row)


def _qq(coeffs):
    """The polynomial over QQ with these rational coefficients: their forms."""
    return [QQ.rational(c).form for c in coeffs]


def test_rational_roots():
    # x(x - 2)
    assert rational_roots(_qq([0, -2, 1])) == [0, 2]
    # 2x^2 - x  has roots 0 and 1/2
    roots = rational_roots(_qq([0, -1, 2]))
    assert roots == [0, Fraction(1, 2)]
    # x^2 - 2 has none
    assert rational_roots(_qq([-2, 0, 1])) == []


def _old_rational_poly_roots(g):
    """The rational root theorem with each candidate ``±p/q`` evaluated by
    ``Fraction`` Horner, over every divisor pair.  Trial division lists the
    divisors, so the end coefficients must be small."""

    def divisors(k):
        k = abs(k)
        out = set()
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.add(d)
                out.add(k // d)
            d += 1
        return sorted(out)

    cs = list(g)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    roots = set()
    while cs and cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) <= 1:
        return sorted(roots)
    mult = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * mult) for c in cs]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(cs):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def _poly_times(g, factor):
    out = [Fraction(0)] * (len(g) + len(factor) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def _large_root_poly(rng):
    """A product of one to three rational linear factors with numerators up
    to 10**9 and denominators up to 50, each sometimes repeated, and now and
    then an irreducible quadratic, over a leading coefficient that 2, 3 and
    5 divide."""
    g = [Fraction(30 * rng.randint(1, 9) * rng.choice((-1, 1)))]
    for _ in range(rng.randint(1, 3)):
        root = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 50))
        for _ in range(rng.choice((1, 1, 2))):
            g = _poly_times(g, [-root, Fraction(1)])
    if rng.random() < 0.5:
        g = _poly_times(g, [Fraction(rng.choice((-3, -2, 1, 2, 5, 7))), Fraction(0), Fraction(1)])
    return g


def _seeded_polys():
    """Products of rational linear factors (zero and repeated roots among
    them), an irreducible quadratic now and then, a rational scale (a
    multiple of 30 in a third of them) and sometimes trailing zero
    coefficients; plus constants, the zero polynomial and forty polynomials
    of :func:`_large_root_poly`."""
    rng = random.Random(26)
    polys = [[], [Fraction(0)], [Fraction(3, 2)], [Fraction(0), Fraction(0), Fraction(5)]]
    for _ in range(80):
        g = [Fraction(rng.randint(1, 9) * rng.choice((1, 1, 30)), rng.randint(1, 9))
             * rng.choice((-1, 1))]
        for _ in range(rng.randint(1, 3)):
            root = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            for _ in range(rng.choice((1, 1, 2))):
                g = _poly_times(g, [-root, Fraction(1)])
        if rng.random() < 0.3:
            g = _poly_times(g, [Fraction(rng.choice((2, 3, 5, 7))), Fraction(0), Fraction(1)])
        polys.append(g + [Fraction(0)] * rng.choice((0, 0, 1)))
    return polys + [_large_root_poly(rng) for _ in range(40)]


def _small(g):
    """Whether trial division lists the divisors of ``g``'s end coefficients
    quickly."""
    return all(abs(c.numerator) < 10**6 and c.denominator < 10**3 for c in g)


def _repeats_a_root(g, roots):
    slope = [i * c for i, c in enumerate(g)][1:]
    return any(sum(c * x**i for i, c in enumerate(slope)) == 0 for x in roots)


def test_rational_poly_roots_match_the_fraction_oracle():
    seen = {"zero root": 0, "repeated root": 0, "no root": 0, "30 | lead": 0}
    for g in filter(_small, _seeded_polys()):
        want = _old_rational_poly_roots(g)
        assert leading._rational_poly_roots(g) == want, g
        seen["zero root"] += Fraction(0) in want
        seen["no root"] += not want
        seen["repeated root"] += _repeats_a_root(g, want)
        seen["30 | lead"] += next((c for c in reversed(g) if c), Fraction(1)).numerator % 30 == 0
    assert min(seen.values()) > 0, seen


def _sympy_factors(g):
    """The irreducible factors of ``g`` over Q, by sympy, ascending."""
    sympy = pytest.importorskip("sympy")
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(g)]
    poly = sympy.Poly(cs or [0], sympy.Symbol("x"), domain="QQ")
    return [[Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            for f, _ in poly.factor_list()[1]]


def test_rational_poly_roots_match_sympy():
    seen = {"large": 0, "large repeated root": 0, "large quadratic factor": 0}
    for g in _seeded_polys():
        factors = _sympy_factors(g)
        want = sorted(-f[0] / f[1] for f in factors if len(f) == 2)
        assert leading._rational_poly_roots(g) == want, g
        if not _small(g):
            seen["large"] += 1
            seen["large repeated root"] += _repeats_a_root(g, want)
            seen["large quadratic factor"] += any(len(f) == 3 for f in factors)
    assert min(seen.values()) > 0, seen


def test_rational_roots_of_a_30_digit_constant():
    # trial division of 10**30 never finished
    assert rational_roots(_qq([10**30, 1])) == [-10**30]


def test_split_rejects_scalar_semisimple_part():
    c = Connection(LaurentMatrix(QQ, [[S({-2: 5}), S({})],
                                      [S({}), S({-2: 5})]]).truncate(0))
    with pytest.raises(ScalarLeadingTerm):
        eigen_block_split(c, jordan_chevalley(c.leading()))


def _sample(prec=2):
    m = LaurentMatrix(QQ, [
        [S({-2: 1, -1: 2}), S({-1: 3, 0: 1})],
        [S({-1: 1, 1: 4}), S({-2: -1, 0: 5})],
    ])
    return Connection(m.truncate(prec))


def test_sibuya_normalize_pushes_tails_into_kernel():
    c = _sample()
    rec = sibuya_normalize(c, c.leading())
    lead = rec.connection.leading()
    # every known coefficient above the lead commutes with the lead
    r = rec.connection.pole_order
    for e in range(-r + 1, rec.connection.prec):
        coeff = rec.connection.coeff(e)
        bracket = [[QQ.zero()] * 2 for _ in range(2)]
        lc = _mat_mul(lead, coeff)
        cl = _mat_mul(coeff, lead)
        assert _grids_equal(lc, cl), f"coefficient at {e} escapes the kernel"


def test_sibuya_normalize_is_a_recorded_gauge():
    c = _sample()
    rec = sibuya_normalize(c, c.leading())
    assert c.gauge(rec.gauge).matrix.coincides_with(rec.connection.matrix)


def test_sibuya_locality():
    # the step-i correction depends only on coefficients up to -r + i, so a
    # perturbation strictly above -r + 2 cannot change the first two steps
    c = _sample(prec=3)
    bumped = Connection(
        (c.matrix + LaurentMatrix(QQ, [[S({}), S({1: 7})], [S({}), S({})]])
         ).truncate(3))
    rec = sibuya_normalize(c, c.leading())
    rec2 = sibuya_normalize(bumped, bumped.leading())
    assert str(rec.corrections[0]) == str(rec2.corrections[0])
    assert str(rec.corrections[1]) == str(rec2.corrections[1])
    assert str(rec.corrections[2]) != str(rec2.corrections[2])


def _pivot_columns(m):
    _, pivots = linalg.rref(m)
    return [[row[p] for row in m] for p in pivots]


def _old_sibuya(c, x):
    """The per-step loop ``sibuya_normalize`` replaced: one ``solve`` against
    the kernel+target basis and one against ``ad(lead)`` for every step, on
    the splitting built the old way: kernel ``ker ad(x)``, source
    ``im ad(x)``, and target ``im ad(x)`` for a semisimple ``x`` or the pivot
    columns of ``ad(lead)`` for a nilpotent lead.
    Returns ``(corrections, gauge, connection)``."""
    n = c.size
    nn = n * n
    lead = c.leading()
    r = -c.valuation
    kernel = linalg.nullspace(linalg.ad_matrix(x))
    source = _pivot_columns(linalg.ad_matrix(x))
    nilpotent = linalg.is_zero_matrix(jordan_chevalley(lead).semisimple)
    target = _pivot_columns(linalg.ad_matrix(lead)) if nilpotent else source
    basis = [[v[i] for v in kernel + target] for i in range(nn)]
    source_mat = [[v[i] for v in source] for i in range(nn)]
    solve_mat = _mat_mul(linalg.ad_matrix(lead), source_mat)

    def target_component(coeff):
        coords = linalg.solve(basis, [y for row in coeff for y in row])
        out = [QQ.zero() for _ in range(nn)]
        for j, xj in enumerate(coords[len(kernel):]):
            if not xj.is_zero():
                for idx in range(nn):
                    out[idx] = out[idx] + target[j][idx] * xj
        return out

    work = c
    total = LaurentMatrix.identity(c.tower, n, c.ram)
    corrections = []
    for i in range(1, c.prec + r):
        m2 = target_component(work.coeff(-r + i))
        if all(x.is_zero() for x in m2):
            continue
        z = linalg.solve(solve_mat, [-x for x in m2])
        flat = [x for x, in _mat_mul(source_mat, [[y] for y in z])]
        c_mat = [flat[a * n:(a + 1) * n] for a in range(n)]
        xi = LaurentMatrix.constant(work.tower, c_mat, work.ram).shift(i) * (-1)
        g = matrix_exp(xi.truncate(c.prec + r))
        work = work.gauge(g)
        total = g * total
        corrections.append((i, c_mat))
    return corrections, total, work


K1 = QQ.extend([-2, 0, 1])  # Q(sqrt 2)
K2 = K1.extend([-3, 0, 1])  # sqrt 3 over Q(sqrt 2)


def _tower_sibuya_inputs():
    """Hand-built inputs over ``K1`` and ``K2`` whose steps carry tower
    elements: a lead ``diag(gen, 2)`` and a standard nilpotent lead, one of
    each per tower, with one ``ram = 3`` input per lead kind."""
    out = []
    for tower, ss_ram, nil_ram in ((K1, 1, 3), (K2, 3, 1)):
        g, root2 = tower.gen(), tower.gen(1)
        higher = {-1: [[1, root2], [g + 1, 0]],
                  0: [[0, 3], [root2 * g, 1]],
                  1: [[g, 0], [1, 2]]}
        c = Connection.from_coeff_map(tower, {-2: [[g, 0], [0, 2]], **higher}, 2,
                                      prec=3, ram=ss_ram)
        out.append((c, jordan_chevalley(c.leading()).semisimple))
        c = Connection.from_coeff_map(tower, {-2: [[0, 1], [0, 0]], **higher}, 2,
                                      prec=2, ram=nil_ram)
        triple = sl2.jacobson_morozov(c.leading())
        c = c.gauge(LaurentMatrix.constant(tower, triple.basis_inv, c.ram))
        out.append((c, triple.e))
    return out


def _sibuya_inputs():
    """Seeded truncated inputs with the ``x`` the reduction would pass: the
    semisimple part of a lead whose semisimple part is not scalar, and the
    ``e`` of the sl2 triple (in the standard chain basis) through a
    nilpotent lead; then the tower inputs of :func:`_tower_sibuya_inputs`."""
    rng = random.Random(5)
    out = []
    for n, r, prec in ((2, 2, 3), (2, 3, 2), (3, 2, 1)):
        c = checks.random_connection(rng, n, r, kind="generic", prec=prec)
        jc = jordan_chevalley(c.leading())
        if len(jc.minpoly) > 2:
            out.append((c, jc.semisimple))
    for n, r, prec in ((2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 0)):
        c = checks.random_connection(rng, n, r, kind="nilpotent_lead", prec=prec)
        triple = sl2.jacobson_morozov(c.leading())
        c = c.gauge(LaurentMatrix.constant(QQ, triple.basis_inv))
        out.append((c, triple.e))
    return out + _tower_sibuya_inputs()


def _long_sibuya_inputs():
    """Two inputs whose step loops run long, so that every entry's integers
    are carried across many steps: the ``ram = 4`` Sibuya call made while
    reducing the ninth seed-1 ``reduce-replay`` benchmark input (19 steps at
    precision 37), and the rank-3, pole-3 nilpotent-lead file of
    ``tests/test_golden_bytes.py`` truncated at 8 (10 steps)."""
    rng = random.Random(1)
    kinds = ("generic", "invertible_lead", "nilpotent_lead")
    for i in range(9):  # the benchmark's draw order
        c = checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2, kind=kinds[i % 3])
    calls = []

    def spy(c, x):
        calls.append((c, x))
        return sibuya_normalize(c, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "sibuya_normalize", spy)
        reduction.reduce(c)
    out = [next(call for call in calls if call[0].ram >= 4)]
    c = checks.random_connection(random.Random(3), 3, 3, kind="nilpotent_lead",
                                 prec=48).truncate(8)
    triple = sl2.jacobson_morozov(c.leading())
    c = c.gauge(LaurentMatrix.constant(QQ, triple.basis_inv))
    return out + [(c, triple.e)]


def test_long_sibuya_inputs_take_long_step_loops():
    (replay, replay_x), (rank3, rank3_x) = _long_sibuya_inputs()
    assert replay.ram >= 4 and len(sibuya_normalize(replay, replay_x).corrections) >= 10
    assert rank3.size == 3 and len(sibuya_normalize(rank3, rank3_x).corrections) >= 10


def _encoded(m):
    return serialize.dumps(serialize.encode_matrix(m))


def test_sibuya_normalize_matches_the_per_step_solve():
    inputs = _sibuya_inputs()
    assert {(c.tower.depth, c.ram) for c, _ in inputs} == {(0, 1), (1, 1), (1, 3),
                                                           (2, 1), (2, 3)}
    for c, x in inputs + _long_sibuya_inputs():
        rec = sibuya_normalize(c, x)
        corrections, gauge, work = _old_sibuya(c, x)
        assert rec.corrections, "the input needs no normalization step"
        assert [i for i, _ in rec.corrections] == [i for i, _ in corrections]
        for (_, new), (_, old) in zip(rec.corrections, corrections):
            new = series._elements(rec.connection.tower, new)
            assert _grids_equal(new, old) and str(new) == str(old)
        assert rec.gauge == gauge and _encoded(rec.gauge) == _encoded(gauge)
        assert (rec.connection.matrix == work.matrix
                and _encoded(rec.connection.matrix) == _encoded(work.matrix))


def _old_step_gauge(tower, c_form, i, p):
    """The one-step gauge ``(E, E**-1, D)`` of the step-by-step loop:
    ``exp(∓u**i C)`` from the powers ``C**k / k!``, each one
    ``_matrix_product`` from the last, and ``D`` as pairs of ``u**(i-1) C``
    with the exact ``i``."""
    (den, parts), size = c_form, tower.sizes[-1]
    n = len(parts[0])
    powers = [(1, {0: [[int(a == b) for b in range(n)] for a in range(n)]})]
    for k in range(1, (p - 1) // i + 1):
        power = series._matrix_product(tower, powers[-1], (den * k, parts))
        if series._is_zero(power):
            break
        powers.append(power)
    e, e_inv = (leading._polynomial([(i * k, sign ** k, x) for k, x in enumerate(powers)],
                                    p, size) for sign in (-1, 1))
    dlog = [[(x, (0, INF, 1, [(0, i)])) for x in row]
            for row in leading._polynomial([(i - 1, 1, c_form)], p - 1, size)]
    return e, e_inv, dlog


def _stepwise_sibuya(c, x):
    """The step loop ``sibuya_normalize`` ran before its tail became one
    gauge: three window products for every step ``i`` from 1 to ``p - 1``.
    Returns ``(corrections, connection matrix, gauge)``."""
    n, lead, r = c.size, c.leading(), -c.valuation
    kernel, image = linalg.kernel_and_image(linalg.ad_matrix(x))
    source = linalg.transpose(image)
    moved = linalg.mat_mul(linalg.ad_matrix(lead), source)
    rows = linalg.inverse([[v[k] for v in kernel] + row
                           for k, row in enumerate(moved)])[len(kernel):]
    p, ram = c.prec + r, c.ram
    tower = common_tower(c.tower, common_context(rows))
    size = tower.sizes[-1]
    rows = series._matrix_form(rows)
    step = series._matrix_product(tower, series._matrix_form(linalg.mat_neg(source)), rows)
    work = series._forms(c.matrix.entries, ram, size)
    total = [[series._ONE if a == b else None for b in range(n)] for a in range(n)]
    corrections = []
    for i in range(1, p):
        column = leading._coefficients(work, [-r + i], size)
        if series._is_zero(column):
            continue
        c_col = series._matrix_product(tower, step, column)
        if series._is_zero(c_col):
            continue
        c_form = (c_col[0], {pos: [[v for v, in m[a * n:(a + 1) * n]] for a in range(n)]
                             for pos, m in c_col[1].items()})
        e, e_inv, dlog = _old_step_gauge(tower, c_form, i, p)
        ew = series._form_product(tower, e, work)
        work = [[series._sum_of_products(tower, [*zip(ew_row, col), d])
                 for col, d in zip(zip(*e_inv), dlog_row)]
                for ew_row, dlog_row in zip(ew, dlog)]
        total = series._form_product(tower, e, total)
        corrections.append((i, c_form))
    return corrections, leading._matrix(tower, ram, work), leading._matrix(tower, ram, total)


def _reduction_sibuya_calls():
    """Every ``sibuya_normalize`` call made while reducing the samples, the
    72 ``reduce-replay`` benchmark inputs of seeds 1-3, and the seed-1
    rank-5, pole-2 nilpotent-lead input, whose ramified blocks run windows
    up to ``p = 100``."""
    calls = []

    def spy(c, x):
        calls.append((c, x))
        return sibuya_normalize(c, x)

    kinds = ("generic", "invertible_lead", "nilpotent_lead")
    inputs = [make() for make in checks.SAMPLES.values()]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        inputs += [checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2,
                                            kind=kinds[i % 3]) for i in range(24)]
    inputs.append(checks.random_connection(random.Random(1), 5, 2, kind="nilpotent_lead"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "sibuya_normalize", spy)
        for c in inputs:
            reduction.reduce(c)
    return calls


def test_sibuya_tail_gauge_matches_the_stepwise_loop():
    calls = _sibuya_inputs() + _long_sibuya_inputs() + _reduction_sibuya_calls()
    windows = [c.prec - c.valuation for c, _ in calls]
    assert max(windows) >= 76 and any(c.tower.depth == 1 for c, _ in calls)
    tails = 0
    for c, x in calls:
        rec = sibuya_normalize(c, x)
        corrections, matrix, gauge = _stepwise_sibuya(c, x)
        h = (c.prec - c.valuation + 1) // 2
        tails += sum(1 for i, _ in corrections if i >= h) > 1
        assert [i for i, _ in rec.corrections] == [i for i, _ in corrections]
        for (_, new), (_, old) in zip(rec.corrections, corrections):
            new, old = (series._elements(rec.connection.tower, x) for x in (new, old))
            assert new == old and str(new) == str(old)
        if not corrections:
            continue
        for got, want in ((rec.connection.matrix, matrix), (rec.gauge, gauge)):
            assert [[s.prec for s in row] for row in got.entries] == [
                [s.prec for s in row] for row in want.entries]
            assert got == want and _encoded(got) == _encoded(want)
    assert tails >= 10  # calls whose tail took more than one step


def _early_return_cases(seed, n, r, prec, kind):
    """``(c, x)`` pairs from one seeded truncated input: for a nilpotent lead
    the connection in its chain basis with the ``e`` of its sl2 triple;
    otherwise the connection with its lead's semisimple part, and, when that
    part is not scalar, every eigenvalue block of its split after the
    stepwise loop with a known lead of pole order >= 2, with that lead's
    semisimple part."""
    c = checks.random_connection(random.Random(seed), n, r, kind=kind, prec=prec)
    if kind == "nilpotent_lead":
        triple = sl2.jacobson_morozov(c.leading())
        return [(c.gauge(LaurentMatrix.constant(QQ, triple.basis_inv)), triple.e)]
    jc = jordan_chevalley(c.leading())
    out = [(c, jc.semisimple)]
    if len(jc.minpoly) > 2:
        split = eigen_block_split(Connection(_stepwise_sibuya(c, jc.semisimple)[1]), jc)
        out += [(block, jordan_chevalley(block.leading()).semisimple) for block in split.blocks
                if block.valuation <= -2 and block.valuation < block.prec]
    return out


# Hypothesis' caches go here, not into the checkout; the directory goes at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")


def test_sibuya_returns_early_exactly_when_every_coefficient_commutes():
    """``sibuya_normalize(c, x)`` gives back ``c`` itself, the exact identity
    and no corrections exactly when :func:`commutes` holds; otherwise its
    matrix and gauge encode to the bytes of the stepwise loop."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
    st = hypothesis.strategies
    outcomes = set()

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.integers(0, 10 ** 6), st.integers(2, 3), st.integers(2, 3),
                      st.integers(0, 3), st.sampled_from(checks.KINDS[:3]))
    def check(seed, n, r, prec, kind):
        for c, x in _early_return_cases(seed, n, r, prec, kind):
            rec = sibuya_normalize(c, x)
            early = (rec.connection is c and rec.corrections == []
                     and rec.gauge == LaurentMatrix.identity(c.tower, c.size, c.ram))
            assert early == commutes(c, x)
            outcomes.add(early)
            if not early:
                corrections, matrix, gauge = _stepwise_sibuya(c, x)
                assert [i for i, _ in rec.corrections] == [i for i, _ in corrections]
                assert _encoded(rec.connection.matrix) == _encoded(matrix)
                assert _encoded(rec.gauge) == _encoded(gauge)

    check()
    assert outcomes == {False, True}


def test_sibuya_normalize_refusals():
    c = _sample()  # lead diag(1, -1)
    lead = c.leading()
    exact = Connection(LaurentMatrix(QQ, [[S({-2: 1}), S({})], [S({}), S({-2: -1})]]))
    with pytest.raises(DomainViolation, match="needs a truncated connection"):
        sibuya_normalize(exact, lead)
    simple_pole = Connection.from_coeff_map(QQ, {-1: [[1, 0], [0, -1]]}, 2, prec=1)
    with pytest.raises(DomainViolation, match="requires a pole of order >= 2"):
        sibuya_normalize(simple_pole, lead)
    # ker ad(x) = span(1, x) and im ad(x) = span(x, diag(1, -1)), which ad(lead)
    # carries onto span(x) alone
    with pytest.raises(DomainViolation, match="do not span gl_n"):
        sibuya_normalize(c, grid([[0, 1], [0, 0]]))


def test_sibuya_normalize_runs_two_eliminations(monkeypatch):
    # one of ad(x) for its kernel and image, one for the step map's inverse
    calls = []
    rref = linalg.rref

    def counting(m):
        calls.append(len(m[0]))
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting)
    for c, x in _sibuya_inputs():
        calls.clear()
        assert sibuya_normalize(c, x).corrections
        assert calls == [c.size ** 2, 2 * c.size ** 2]


@pytest.mark.parametrize("offset", [1, 2])
def test_sibuya_leftover_check_names_the_first_offset_left(monkeypatch, offset):
    # the lead diag(1, 2) has the diagonal as kernel; the off-diagonal
    # coefficients at offsets ``offset`` and 3 are left with a target component
    # when every step gauge is the identity
    diagonal, upper = [[3, 0], [0, 4]], [[0, 1], [0, 0]]
    higher = {-1: upper, 0: diagonal} if offset == 1 else {-1: diagonal, 0: upper}
    c = Connection.from_coeff_map(QQ, {-2: [[1, 0], [0, 2]], **higher, 1: [[0, 0], [5, 0]]},
                                  2, prec=2)
    assert [i for i, _ in sibuya_normalize(c, c.leading()).corrections][0] == offset
    ident = [[leading._ONE if a == b else None for b in range(2)] for a in range(2)]
    no_dlog = [[(None, None)] * 2 for _ in range(2)]
    monkeypatch.setattr(leading, "_step_gauge", lambda *args: (ident, ident, no_dlog))
    with pytest.raises(EngineError, match=f"coefficient at offset {offset} still has a component"):
        sibuya_normalize(c, c.leading())


def test_eigen_block_split_rational_eigenvalues():
    m = LaurentMatrix(QQ, [[S({-2: 0}), S({-2: 1})], [S({-2: 1}), S({})]])
    c = Connection(m.truncate(1))
    rec = sibuya_normalize(c, c.leading())
    out = eigen_block_split(rec.connection, jordan_chevalley(rec.connection.leading()))
    assert out.sizes == [1, 1]
    assert out.transform.tower.depth == 0  # +-1 need no extension
    # block_split refuses nonzero off-diagonal entries
    moved = rec.connection.gauge(out.transform).block_split(out.sizes)
    assert len(moved) == len(out.blocks)
    assert all(m.matrix.coincides_with(b.matrix) for m, b in zip(moved, out.blocks))


def test_eigen_block_split_adjoins_a_root_when_needed():
    m = LaurentMatrix(QQ, [[S({}), S({-2: 1})], [S({-2: 2}), S({})]])
    c = Connection(m.truncate(1))
    rec = sibuya_normalize(c, c.leading())
    out = eigen_block_split(rec.connection, jordan_chevalley(rec.connection.leading()))
    assert out.sizes == [1, 1]
    assert out.transform.tower.depth == 1  # a root of x^2 - 2 was adjoined
    lead0 = out.blocks[0].leading()[0][0]
    # the adjoined root really squares to 2
    assert (lead0 * lead0 - out.transform.tower.rational(2)).is_zero()


def test_the_adjoined_level_is_the_minimal_polynomial_itself():
    """A rank-3 lead whose characteristic polynomial ``x^3 - x - 1`` has no
    rational root: the split adjoins one of its roots, and the level it adds
    is ``tuple(jordan_chevalley(lead).minpoly)``, the coefficient forms
    unconverted."""
    lead = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # the companion matrix of x^3 - x - 1
    c = Connection(LaurentMatrix(QQ, [[S({-2: x}) for x in row] for row in lead]).truncate(1))
    jc = jordan_chevalley(c.leading())
    assert jc.minpoly == [QQ.rational(q).form for q in (-1, -1, 0, 1)]
    out = eigen_block_split(c, jc)
    assert out.transform.tower.levels == (tuple(jc.minpoly),)
    assert out.sizes == [1, 2]
