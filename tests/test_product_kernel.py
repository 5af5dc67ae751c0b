"""The series and matrix product kernel against the element-wise product.

``LaurentSeries.__mul__`` and ``LaurentMatrix.__mul__`` run one integer
convolution (``series.mat_product``).  The reference below is the product
it replaced: one ``FieldElement`` product per pair of terms, summed term by
term and entry by entry with the series' own ``+``.  Hypothesis draws
operands over prefixes of one depth-2 tower (so operands of one product may
sit at different depths), at ramification 1 or 2, with exact, truncated,
zero-to-precision and exactly zero entries; every coefficient and every
entry's precision must agree.  The integer kernel is checked too: a sum of
products of integer forms (``series._sum_of_products``, which the Sibuya
step loop chains and every built series holds) must be exactly the integer
form of the series the constructor builds from the coefficients the
kernel's series read, and exactly what the two halves it replaced give
(:func:`reference_accumulate` and :func:`reference_settle`, with their fold
by exponent, :func:`reference_fold_nums`), over Q, Q(sqrt 2) and a depth-2
tower whose fold map has a denominator, at ramification 1-3, on pairs that
always include one whose product leaves the basis, so that the fold runs.  ``LaurentMatrix.inverse`` and ``Connection.gauge``, which
run on those integer forms, are checked against the series paths they
replaced (:func:`_old_inverse`, :func:`_old_gauge`) at rank 1-4: every
entry's precision, valuation and encoding, or the type and message of the
exception, must agree.  ``linalg.mat_mul``, which runs constant matrices
through the same kernel, is checked against the element-wise loop it
replaced (``test_matrices._mat_mul``) on rectangular grids of elements at
mixed levels over towers of depth 0-2, with exact zeros: every entry's
value, and its tower, which is the operands' common one.  The
run is derandomized, keeps no example database and points Hypothesis'
caches at a temporary directory.
"""

import math
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# collecting @given tests already writes Hypothesis' caches, so redirect
# them before anything below is decorated; the directory goes at exit
_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

from mcred import linalg, serialize  # noqa: E402
from mcred.connection import Connection  # noqa: E402
from mcred.errors import EngineError  # noqa: E402
from mcred.field import FieldTower, _fold_map, common_context, common_tower  # noqa: E402
from mcred.matrices import LaurentMatrix  # noqa: E402
from mcred.series import (  # noqa: E402
    INF,
    LaurentSeries,
    _from_form,
    _integral,
    _normal,
    _sum_of_products,
)
from test_field import from_payload  # noqa: E402
from test_matrices import _adjugate, _mat_mul  # noqa: E402

ORACLE = settings(max_examples=300, derandomize=True, database=None, deadline=None)

QQ = FieldTower()
K = QQ.extend([-2, 0, 1])                 # sqrt(2)
L = K.extend([-K.gen(), 0, 0, 1])         # a cube root of sqrt(2)
TOWERS = (QQ, K, L)
# a root of x**3 + x/3 - sqrt(2)/2: its integer fold map has denominator 6
H = K.extend([K.gen() * Fraction(-1, 2), Fraction(1, 3), 0, 1])
FOLDING = (QQ, K, H)


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_home():
    # another module's teardown may have reset the caches to the checkout
    set_hypothesis_home_dir(_HOME.name)


def reference_mul(a, b):
    """The element-wise series product the kernel replaced."""
    a, b = a._pair(b)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(a.tower, a.ram)
    prec = min(a.valuation + b.prec, b.valuation + a.prec)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e >= prec:
                continue
            term = ca * cb
            out[e] = out[e] + term if e in out else term
    return LaurentSeries(a.tower, out, prec, a.ram)


def reference_mat_mul(a, b):
    """The entry-by-entry matrix product the kernel replaced."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = reference_mul(a.entries[i][0], b.entries[0][j])
            for k in range(1, a.ncols):
                acc = acc + reference_mul(a.entries[i][k], b.entries[k][j])
            row.append(acc)
        rows.append(row)
    return LaurentMatrix(a.tower, rows, a.ram)


def reference_accumulate(size, pairs):
    """``(prec, den, acc)``: the sum of the products of the forms ``pairs`` as
    unreduced numerators ``acc[e * size + position]`` over ``den``, known below
    ``prec`` (the first half of the kernel ``_sum_of_products`` replaced)."""
    live = [(a, b) for a, b in pairs if a and b]
    prec = min((min(a[0] + b[1], b[0] + a[1]) for a, b in live), default=INF)
    den = math.lcm(*[a[2] * b[2] for a, b in live])
    acc = {}
    for (_, _, da, ta), (_, _, db, tb) in live:
        scale = den // (da * db)
        for ka, na in ta:
            lim = (prec - ka // size) * size
            na *= scale
            for kb, nb in tb:
                if kb >= lim:
                    break
                acc[ka + kb] = acc.get(ka + kb, 0) + na * nb
    return prec, den, acc


def reference_fold_nums(tower, level, nums):
    """``(d, reduced)``: the unreduced coordinates ``nums`` of one exponent
    reduced by the minimal polynomials through ``level``, over ``d``."""
    if level == 0:
        return 1, nums
    d, images = _fold_map(tower, level)
    reduced = {}
    for pos, n in nums.items():
        for p, r in images[pos]:
            reduced[p] = reduced.get(p, 0) + n * r
    return d, reduced


def reference_settle(tower, prec, den, acc):
    """The form a :func:`reference_accumulate` result sums to, grouped by
    exponent and folded one exponent at a time (the second half)."""
    size, level = tower.sizes[-1], tower.depth
    d, terms = 1, []
    if level == 0:
        terms = sorted((k, n) for k, n in acc.items() if n)
    else:
        grouped = {}
        for k, n in acc.items():
            if n:
                e, pos = divmod(k, size)
                grouped.setdefault(e, {})[pos] = n
        for e, nums in sorted(grouped.items()):
            d, reduced = reference_fold_nums(tower, level, nums)
            terms += sorted((e * size + p, n) for p, n in reduced.items() if n)
    return _normal(size, prec, den * d, terms)


def _old_inverse(g):
    """The series path ``LaurentMatrix.inverse`` replaced: the adjugate and
    row 0 of ``g @ adj(g)`` by the entries' own operators, then one series
    inverse of the determinant."""
    if g.size == 1:
        return LaurentMatrix(g.tower, [[g.entries[0][0].inverse()]], g.ram)
    adj = _adjugate(g.entries)
    d = _mat_mul(g.entries[:1], [r[:1] for r in adj])[0][0]
    return LaurentMatrix(g.tower, adj, g.ram) * d.inverse()


def _old_gauge(c, g):
    """The series path ``Connection.gauge`` replaced."""
    gi = _old_inverse(g)
    return Connection(g * c.matrix * gi - g.derivative() * gi)


# -- strategies ----------------------------------------------------------------

rationals = st.one_of(st.just(Fraction(0)), st.fractions(
    min_value=-6, max_value=6, max_denominator=6))


@st.composite
def payloads(draw, tower, level):
    if level == 0:
        return draw(rationals)
    return tuple(draw(payloads(tower, level - 1)) for _ in range(tower.degree(level)))


@st.composite
def elements(draw, tower):
    level = draw(st.integers(0, tower.depth))
    return from_payload(tower, level, draw(payloads(tower, level)))


@st.composite
def series(draw, tower, ram):
    kind = draw(st.sampled_from(["exact", "truncated", "zero_to_precision", "zero"]))
    if kind == "zero":
        return LaurentSeries.zero(tower, ram)
    prec = INF if kind == "exact" else draw(st.integers(-3, 6))
    coeffs = {}
    if kind != "zero_to_precision":
        for exp in draw(st.lists(st.integers(-3, 5), max_size=4, unique=True)):
            coeffs[exp] = draw(elements(tower))
    s = LaurentSeries(tower, coeffs, prec, ram)
    if kind == "exact" and s.is_zero():
        return LaurentSeries(tower, {0: tower.one()}, INF, ram)
    return s


# the towers of one case come from one chain: H and L are not prefix-compatible
chains = st.sampled_from([TOWERS, FOLDING])


def contexts(chain):
    return st.tuples(st.sampled_from(chain), st.sampled_from([1, 2]))


@st.composite
def series_pairs(draw):
    chain = draw(chains)
    (ta, ra), (tb, rb) = draw(contexts(chain)), draw(contexts(chain))
    a = draw(series(ta, ra))
    if draw(st.integers(0, 4)) == 0:  # a scalar right operand
        return a, draw(st.one_of(st.integers(-3, 3), rationals, elements(tb)))
    return a, draw(series(tb, rb))


@st.composite
def matrix_pairs(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    chain = draw(chains)
    (ta, ra), (tb, rb) = draw(contexts(chain)), draw(contexts(chain))
    a = LaurentMatrix(ta, [[draw(series(ta, ra)) for _ in range(k)] for _ in range(n)], ra)
    b = LaurentMatrix(tb, [[draw(series(tb, rb)) for _ in range(m)] for _ in range(k)], rb)
    return a, b


@st.composite
def element_grid_pairs(draw):
    """Two grids of elements, ``n x k`` and ``k x m``, each over a prefix of
    one tower, with exact zeros at any level."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    chain = draw(chains)

    def grid(tower, rows, cols):
        entries = st.one_of(elements(tower), st.builds(tower.zero))
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    return grid(draw(st.sampled_from(chain)), n, k), grid(draw(st.sampled_from(chain)), k, m)


@st.composite
def product_sums(draw):
    """``(tower, pairs)``: up to four pairs of forms over Q, Q(sqrt 2) or the
    depth-2 tower ``H`` at ramification 1-3, each operand drawn over a prefix
    of it, and over an extension one more exact pair of top-level monomials
    ``x**(deg - 1) u**e`` whose product ``x**(2 deg - 2)`` leaves the basis
    at an exponent no other product reaches, so that the fold runs."""
    top, ram = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    tower, size = FOLDING[top], FOLDING[top].sizes[-1]

    def form():
        return _integral(draw(series(FOLDING[draw(st.integers(0, top))], ram)), ram, size)

    pairs = [(form(), form()) for _ in range(draw(st.integers(0, 4)))]
    if top:
        lead = math.prod([tower.gen()] * (tower.degree(top) - 1), start=tower.one())
        mono = [_integral(LaurentSeries.monomial(tower, lead, draw(st.integers(-5, -4)), ram),
                          ram, size) for _ in range(2)]
        pairs.insert(draw(st.integers(0, len(pairs))), tuple(mono))
    return tower, pairs


@st.composite
def unit_triangular(draw, tower, ram, n, lower):
    one, zero = LaurentSeries.one(tower, ram), LaurentSeries.zero(tower, ram)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                exps = draw(st.lists(st.integers(0, 2), max_size=2, unique=True))
                rows[i][j] = LaurentSeries(tower, {e: draw(elements(tower)) for e in exps},
                                           INF, ram)
    return LaurentMatrix(tower, rows, ram)


@st.composite
def gauges(draw, tower, ram, n):
    """An exact gauge ``L D U`` with a monomial determinant, that gauge
    truncated with some entries replaced by zeros to precision, that gauge
    times ``1 + u``, exact (no terminating inverse) or truncated (so each
    entry keeps its own relative precision and the minors cancel), or a
    matrix of random series (maybe singular to its precision)."""
    kind = draw(st.sampled_from(["monomial", "truncated", "unit", "random"]))
    if kind == "random":
        return LaurentMatrix(tower, [[draw(series(tower, ram)) for _ in range(n)]
                                     for _ in range(n)], ram)
    nonzero = elements(tower).filter(lambda x: not x.is_zero())
    diag = LaurentMatrix.diagonal(tower, [
        LaurentSeries.monomial(tower, draw(nonzero), draw(st.integers(-2, 2)), ram)
        for _ in range(n)], ram)
    g = (draw(unit_triangular(tower, ram, n, True)) * diag
         * draw(unit_triangular(tower, ram, n, False)))
    if kind == "truncated":
        prec = g.valuation + draw(st.integers(1, 5))
        g = LaurentMatrix(tower, [[LaurentSeries(tower, {}, prec, ram) if draw(st.booleans())
                                   and draw(st.booleans()) else s.truncate(prec)
                                   for s in row] for row in g.entries], ram)
    elif kind == "unit":
        g = g * LaurentSeries(tower, {0: 1, 1: 1}, draw(st.sampled_from([INF, 2, 3, 4])), ram)
    return g


@st.composite
def gauge_cases(draw):
    """``(connection, gauge)`` of rank 1-4 at one ramification, over
    prefixes of one tower."""
    n, ram, chain = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2])), draw(chains)
    tc, tg = draw(st.sampled_from(chain)), draw(st.sampled_from(chain))
    c = Connection(LaurentMatrix(tc, [[draw(series(tc, ram)) for _ in range(n)]
                                      for _ in range(n)], ram))
    return c, draw(gauges(tg, ram, n))


# -- the properties ------------------------------------------------------------


def outcome(run):
    """Each entry's precision, valuation and encoding, or the exception."""
    try:
        m = run()
    except EngineError as exc:
        return type(exc), str(exc)
    return m.ram, m.tower, [[(s.prec, s.valuation, serialize.dumps(serialize.encode_series(s)))
                             for s in row] for row in m.entries]


def assert_same_series(got, want):
    assert got.ram == want.ram and got.tower == want.tower
    assert got.prec == want.prec and (got.prec is INF) == (want.prec is INF)
    assert got.coeffs == want.coeffs  # FieldElement == compares across prefix towers
    assert all(c.tower is got.tower and not c.is_zero() for c in got.coeffs.values())


@ORACLE
@given(series_pairs())
def test_series_product_matches_elementwise(pair):
    a, b = pair
    assert_same_series(a * b, reference_mul(a, b))
    if not isinstance(b, LaurentSeries):
        assert_same_series(b * a, reference_mul(a, b))


@settings(ORACLE, max_examples=200)
@given(matrix_pairs())
def test_matrix_product_matches_elementwise(pair):
    a, b = pair
    got, want = a * b, reference_mat_mul(a, b)
    assert (got.nrows, got.ncols, got.ram) == (want.nrows, want.ncols, want.ram)
    for got_row, want_row in zip(got.entries, want.entries):
        for x, y in zip(got_row, want_row):
            assert_same_series(x, y)


@ORACLE
@given(element_grid_pairs())
def test_constant_product_matches_elementwise(pair):
    a, b = pair
    got, want = linalg.mat_mul(a, b), _mat_mul(a, b)
    tower = common_context(a + b)
    assert [len(row) for row in got] == [len(row) for row in want]
    assert all(x.tower is tower for row in got for x in row)
    assert [[x.form for x in row] for row in got] == [[x.form for x in row] for row in want]


@settings(ORACLE, max_examples=200)
@given(matrix_pairs())
def test_settled_products_are_the_integer_forms_of_the_built_series(pair):
    a, b = pair
    tower, ram = common_tower(a.tower, b.tower), math.lcm(a.ram, b.ram)
    size = tower.sizes[-1]
    cols = [[_integral(s, ram, size) for s in col] for col in zip(*b.entries)]
    for row in a.entries:
        forms = [_integral(s, ram, size) for s in row]
        for col in cols:
            form = _sum_of_products(tower, zip(forms, col))
            built = _from_form(tower, ram, form)
            constructed = LaurentSeries(tower, dict(built.coeffs), built.prec, ram)
            assert form == _integral(constructed, ram, size)


@ORACLE
@given(product_sums())
def test_sum_of_products_matches_the_two_halves_it_replaced(case):
    tower, pairs = case
    size = tower.sizes[-1]
    prec, den, acc = reference_accumulate(size, pairs)
    assert _sum_of_products(tower, pairs) == reference_settle(tower, prec, den, acc)
    if tower.depth:  # the monomial pair's product left the basis
        d, images = _fold_map(tower, tower.depth)
        assert any(images[k % size] != [(k % size, d)] for k, n in acc.items() if n)


@settings(ORACLE, max_examples=150)
@given(gauge_cases())
def test_inverse_and_gauge_match_the_series_paths(case):
    c, g = case
    assert outcome(g.inverse) == outcome(lambda: _old_inverse(g))
    assert outcome(lambda: c.gauge(g).matrix) == outcome(lambda: _old_gauge(c, g).matrix)


def test_exact_zero_factor_contributes_no_precision():
    # the exact-zero pair leaves the truncated one's precision alone
    t = LaurentSeries(QQ, {1: 1}, 3)
    z = LaurentSeries.zero(QQ)
    a = LaurentMatrix(QQ, [[t, z]])
    b = LaurentMatrix(QQ, [[t], [t]])
    assert (a * b).entries[0][0] == LaurentSeries(QQ, {2: 1}, 4)
    assert (LaurentMatrix(QQ, [[z, z]]) * b).entries[0][0].is_zero()


def test_cancelling_terms_drop_and_keep_precision():
    a = LaurentSeries(K, {0: K.gen(), 1: 1}, 5)
    b = LaurentSeries(K, {0: K.gen(), 1: -1}, 5)
    prod = LaurentMatrix(K, [[a, b]]) * LaurentMatrix(K, [[a], [-b]])
    # a*a - b*b = 4*sqrt(2) u: the u**0 and u**2 terms cancel
    assert prod.entries[0][0] == LaurentSeries(K, {1: 4 * K.gen()}, 5)
