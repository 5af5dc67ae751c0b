"""Elimination in ``linalg`` against independent references.

Over QQ the reference is sympy (test-only).  Over algebraic extensions it is
the element-wise Gauss-Jordan loop below: the same pivot rule, computed with
``FieldElement`` operators on every column.  Right-hand sides come from the
element-wise product of ``test_matrices``, not from ``linalg.mat_mul``.
"""

import math
import random
import tempfile
from fractions import Fraction

import pytest

from mcred import checks, cohomology, linalg
from mcred.cohomology import LatticeWindow, flat_section_dim
from mcred.errors import LinearSolveFailed, NotInvertible, ZeroDivisorSplit
from mcred.field import FieldTower, common_context
from test_cohomology import K1, K2
from test_matrices import _mat_mul

QQ = FieldTower()
K = QQ.extend([-2, 0, 1])  # sqrt 2
L = K.extend([K.rational(-3), K.zero(), K.one()])  # sqrt 3 on top
SPLIT = QQ.extend([-1, 0, 1])  # x^2 - 1: only a ring


def oracle_rref(m):
    """Element-wise Gauss-Jordan, first nonzero row as pivot."""
    rows, cols = linalg.mat_shape(m)
    r = [list(row) for row in m]
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        pivot_row = None
        for i in range(lead, rows):
            if not r[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        inv = r[lead][col].inverse()
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and not r[i][col].is_zero():
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


# ---------------------------------------------------------------------------
# seeded matrices


def _rat(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _scalar(rng, tower):
    """A random element using every level of ``tower``."""
    x = tower.rational(_rat(rng))
    for lv in range(1, tower.depth + 1):
        x = x + tower.gen(lv) * _rat(rng)
    return x


def _matrix(rng, tower, rows, cols, band=None):
    """Random matrix; ``band`` keeps only ``|i - j| <= band``; the last row
    is a combination of the first two, so the rank is deficient."""
    m = [[_scalar(rng, tower) if band is None or abs(i - j) <= band else tower.zero()
          for j in range(cols)] for i in range(rows)]
    if rows >= 3:
        m[-1] = [x + y * 2 for x, y in zip(m[0], m[1])]
    return m


def _lattice_bands():
    """The flat-section system ``flat_section_dim`` builds on a
    nilpotent-lead input over QQ: integer bands, as ``_lattice`` hands them
    to the integer kernel, and the width of their dense rows."""
    c = checks.random_connection(random.Random(3), 2, 2, kind="nilpotent_lead")
    w = LatticeWindow(-4, 4)
    seen = []
    real = cohomology._lattice

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    cohomology._lattice = spy
    try:
        flat_section_dim(c, w)
    finally:
        cohomology._lattice = real
    return seen[0], c.size * (cohomology._flat_top(c, w) - w.n_min)


def _dense(bands, cols):
    """The dense integer rows of ``bands``, ``cols`` wide."""
    return [[0] * lo + values + [0] * (cols - lo - len(values)) for lo, values in bands]


def _reversed(bands, cols):
    """``bands`` with every row reversed, as ``flat_section_dim`` hands them over."""
    return [(cols - lo - len(values), values[::-1]) for lo, values in bands]


def _qq_cases():
    rng = random.Random(1)
    cases = [_matrix(rng, QQ, 5, 5), _matrix(rng, QQ, 4, 7), _matrix(rng, QQ, 7, 4),
             _matrix(rng, QQ, 9, 9, band=1), _matrix(rng, QQ, 8, 12, band=2)]
    return cases + [[[QQ.rational(x) for x in row] for row in LATTICE_ROWS]]


LATTICE_BANDS, LATTICE_COLS = _lattice_bands()
LATTICE_ROWS = _dense(LATTICE_BANDS, LATTICE_COLS)
QQ_CASES = _qq_cases()


# ---------------------------------------------------------------------------
# QQ against sympy


def _to_sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(x.to_fraction().numerator,
                                         x.to_fraction().denominator)
                          for x in row] for row in m])


def _fracs(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def _as_fracs(m):
    return [[x.to_fraction() for x in row] for row in m]


@pytest.mark.parametrize("k", range(len(QQ_CASES)))
def test_rref_rank_nullspace_match_sympy_over_qq(k):
    m = QQ_CASES[k]
    s = _to_sympy(m)
    s_rref, s_pivots = s.rref()
    r, pivots = linalg.rref(m)
    assert pivots == list(s_pivots)
    assert _as_fracs(r) == _fracs(s_rref)
    assert linalg.rank(m) == s.rank()
    ours = [[x.to_fraction() for x in v] for v in linalg.nullspace(m)]
    assert ours == [[row[0] for row in _fracs(v)] for v in s.nullspace()]


def test_integer_kernel_on_the_lattice_rows_matches_sympy():
    """The lattice bands go to the integer kernel as ``_lattice`` builds them,
    and as ``flat_section_dim`` hands them over (each row reversed)."""
    sympy = pytest.importorskip("sympy")
    assert all(type(x) is int for _, values in LATTICE_BANDS for x in values)
    assert all(0 <= lo and lo + len(values) <= LATTICE_COLS for lo, values in LATTICE_BANDS)
    for bands in (LATTICE_BANDS, _reversed(LATTICE_BANDS, LATTICE_COLS)):
        rows = _dense(bands, LATTICE_COLS)
        want = list(sympy.Matrix(rows).rref()[1])
        assert linalg.integer_pivot_columns(bands) == want
        assert _dense_integer_pivot_columns(rows) == want
        assert 0 < len(want) < min(len(rows), len(rows[0]))


def _dense_integer_pivot_columns(rows):
    """The dense integer kernel the band kernel replaced: at each column the
    first nonzero row from the pivot position on is swapped up, every row
    below it becomes ``a·row − b·pivot_row`` on the pivot row's nonzero
    columns and is divided by its content."""
    cols = len(rows[0]) if rows else 0
    ints = [list(row) for row in rows if any(row)]
    pivots = []
    for col in range(cols):
        lead = len(pivots)
        if lead >= len(ints):
            break
        pivot_row = next((i for i in range(lead, len(ints)) if ints[i][col]), None)
        if pivot_row is None:
            continue
        ints[lead], ints[pivot_row] = ints[pivot_row], ints[lead]
        prow = ints[lead]
        pv = prow[col]
        support = [j for j in range(col + 1, cols) if prow[j]]
        for i in range(lead + 1, len(ints)):
            row = ints[i]
            f = row[col]
            if not f:
                continue
            g = math.gcd(pv, f)
            a, b = (pv // g, f // g) if pv > 0 else (-pv // g, -f // g)
            row[col] = 0
            if a != 1:
                row = [x * a for x in row]
            for j in support:
                row[j] -= b * prow[j]
            content = math.gcd(*row)
            ints[i] = [x // content for x in row] if content > 1 else row
        pivots.append(col)
    return pivots


def _band_matrices(st):
    """Random integer band rows ``(cols, bands, kinds)``: bands anywhere in
    ``cols`` columns with zeros inside, zero rows and empty bands,
    combinations of two earlier rows (so the rank drops), and sometimes every row
    reversed as ``flat_section_dim`` reverses them.  ``kinds`` names what
    the case holds."""
    entries = st.sampled_from([0, 0, 1, -1]) | st.integers(-9, 9)

    @st.composite
    def draw_case(draw):
        cols = draw(st.integers(1, 9))
        bands, kinds = [], set()
        for _ in range(draw(st.integers(0, 9))):
            lo = draw(st.integers(0, cols))
            kind = draw(st.sampled_from(["band", "band", "band", "zero", "mix"]))
            if kind == "mix" and len(bands) >= 2:
                p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                (lo1, v1), (lo2, v2) = draw(st.permutations(bands))[:2]
                row = [p * x + q * y for x, y in zip(*_dense([(lo1, v1), (lo2, v2)], cols))]
                bands.append((0, row))
                kinds.add("combination")
                continue
            values = draw(st.lists(entries, max_size=cols - lo))
            if kind == "zero":
                values = [0] * len(values)
            bands.append((lo, values))
            if not any(values):
                kinds.add("empty band" if not values else "zero row")
            elif 0 in values:
                kinds.add("zeros in a band")
            if next((x for x in values if x), 0) < 0:
                kinds.add("negative lead")
        if draw(st.booleans()):
            bands = _reversed(bands, cols)
            kinds.add("reversed")
        return cols, bands, kinds

    return draw_case()


# Hypothesis' caches go here, not into the checkout; the directory goes at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")


def test_band_kernel_matches_the_dense_oracle_and_sympy():
    """On random integer band rows the band kernel finds the pivots the
    dense kernel finds on their dense rows, and sympy's ``rref``, and leaves
    its input as it was.  The property runs under Hypothesis, derandomized
    and with no example database."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis.configuration import set_hypothesis_home_dir

    st = hypothesis.strategies
    seen = {kind: 0 for kind in ("empty band", "zero row", "zeros in a band", "negative lead",
                                 "combination", "reversed", "deficient")}
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_band_matrices(st))
    def check(case):
        cols, bands, kinds = case
        before = [(lo, list(values)) for lo, values in bands]
        rows = _dense(bands, cols)
        want = list(sympy.Matrix(rows).rref()[1]) if rows else []
        assert linalg.integer_pivot_columns(bands) == want
        assert _dense_integer_pivot_columns(rows) == want
        assert bands == before
        for kind in kinds:
            seen[kind] += 1
        seen["deficient"] += len(want) < min(len(rows), cols)

    check()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("k", range(len(QQ_CASES)))
def test_solve_matches_sympy_over_qq(k):
    m = QQ_CASES[k]
    cols = len(m[0])
    b = [y for y, in _mat_mul(m, [[QQ.rational(Fraction(j - 2, j + 1))] for j in range(cols)])]
    sol, params = _to_sympy(m).gauss_jordan_solve(_to_sympy([[y] for y in b]))
    sol = sol.subs({p: 0 for p in params})
    assert _as_fracs([linalg.solve(m, b)]) == [[row[0] for row in _fracs(sol)]]
    bad = b[:-1] + [b[-1] + 1]
    try:
        _to_sympy(m).gauss_jordan_solve(_to_sympy([[y] for y in bad]))
    except ValueError:
        with pytest.raises(LinearSolveFailed):
            linalg.solve(m, bad)
    else:
        linalg.solve(m, bad)


@pytest.mark.parametrize("k", [0, 3])
def test_inverse_matches_sympy_over_qq(k):
    rng = random.Random(10 + k)
    n = 5
    m = [[_scalar(rng, QQ) if abs(i - j) <= k else QQ.zero() for j in range(n)]
         for i in range(n)]
    s = _to_sympy(m)
    if s.det() == 0:
        with pytest.raises(NotInvertible):
            linalg.inverse(m)
        return
    assert _as_fracs(linalg.inverse(m)) == _fracs(s.inv())


# ---------------------------------------------------------------------------
# extensions against the element-wise oracle


def _ext_cases():
    rng = random.Random(2)
    return [(t, _matrix(rng, t, rows, cols, band))
            for t in (K, L)
            for rows, cols, band in ((4, 4, None), (3, 5, None), (5, 3, None),
                                     (6, 6, 1))]


EXT_CASES = _ext_cases()


@pytest.mark.parametrize("k", range(len(EXT_CASES)))
def test_routines_match_oracle_over_extensions(k, monkeypatch):
    tower, m = EXT_CASES[k]
    cols = len(m[0])
    b = [y for y, in _mat_mul(m, [[tower.gen() * j + 1] for j in range(cols)])]
    r, pivots = linalg.rref(m)
    got = (linalg.rank(m), linalg.nullspace(m), linalg.solve(m, b),
           linalg.kernel_and_image(m))
    monkeypatch.setattr(linalg, "rref", oracle_rref)
    o_r, o_pivots = oracle_rref(m)
    assert pivots == o_pivots
    assert linalg.mat_eq(r, o_r)
    assert got[0] == linalg.rank(m)
    assert linalg.mat_eq(got[1], linalg.nullspace(m))
    assert linalg.mat_eq([got[2]], [linalg.solve(m, b)])
    kernel, image = got[3]
    assert linalg.mat_eq(kernel, linalg.nullspace(m))
    assert linalg.mat_eq(image, [[row[p] for row in m] for p in o_pivots])


@pytest.mark.parametrize("tower", [K, L])
def test_inverse_matches_oracle_over_extensions(tower, monkeypatch):
    rng = random.Random(4)
    m = [[_scalar(rng, tower) if abs(i - j) <= 1 else tower.zero() for j in range(4)]
         for i in range(4)]
    inv = linalg.inverse(m)
    assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(tower, 4))
    monkeypatch.setattr(linalg, "rref", oracle_rref)
    assert linalg.mat_eq(inv, linalg.inverse(m))


# ---------------------------------------------------------------------------
# edge cases


def test_empty_and_zero_column_matrices():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], [], []]) == ([[], [], []], [])
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.pivot_columns([]) == []
    assert linalg.pivot_columns([(0, []), (0, [])]) == []
    assert linalg.pivot_columns([(0, [QQ.zero()] * 3)] * 2) == []


def _mixed_cases():
    s2, s3 = L.gen(1), L.gen(2)
    depth_one = [[K.rational(1), K.gen(), K.rational(2)],
                 [K.rational(2), K.rational(3), K.gen() * 2],
                 [K.gen() + 3, K.rational(0), K.rational(5)]]
    prefix_towers = [
        [QQ.rational(0), K.rational(2), K.gen(), s3],
        [QQ.rational(3), L.rational(1), K.gen() + 1, QQ.rational(5)],
        [L.zero(), K.gen() * 2, s2 * s3, L.one()],
        [K.rational(6), QQ.rational(4), K.gen() * 3 + 1, s3 * 2 + s2 * 2],
    ]
    level_zero = [[K.rational(q) for q in row] for row in ((1, 2), (3, 4), (2, 4))]
    return [(depth_one, K, 1), (prefix_towers, L, 2), (level_zero, K, 0)]


@pytest.mark.parametrize("m, tower, level", _mixed_cases())
def test_mixed_levels_and_prefix_towers_match_oracle(m, tower, level):
    r, pivots = linalg.rref(m)
    o_r, o_pivots = oracle_rref(m)
    assert pivots == o_pivots
    assert linalg.mat_eq(r, o_r)
    # every entry over the common tower, at a derived level no higher than the matrix's
    assert all(x.tower == tower and x.level <= level for row in r for x in row)


def _split_of(x):
    with pytest.raises(ZeroDivisorSplit) as info:
        x.inverse()
    return info.value


@pytest.mark.parametrize("tower", [SPLIT, SPLIT.extend([-2, 0, 1])])
def test_zero_divisor_pivot_reports_the_scalar_split(tower):
    """The pivot ``x - 1`` sits at level 1; on the deeper tower the matrix's
    top level is 2 and the pivot is lifted before it is inverted."""
    x = tower.gen(1)
    m = [[x - 1, tower.gen()], [tower.one(), x]]
    want = _split_of(x - 1)
    with pytest.raises(ZeroDivisorSplit) as info:
        linalg.rref(m)
    got = info.value
    assert (got.level, got.factors, got.tower) == (want.level, want.factors, want.tower)


# ---------------------------------------------------------------------------
# pivot columns against rref


def _big(rng):
    """A rational with numerator and denominator of 30 to 40 digits."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**30, 10**40),
                    rng.randint(10**30, 10**40))


def _pivot_entry(rng, tower, big):
    if rng.random() < 0.4:
        return tower.zero()
    x = tower.rational(_big(rng) if big else _rat(rng))
    for lv in range(1, tower.depth + 1):
        if rng.random() < 0.5:
            x = x + tower.gen(lv) * _rat(rng)
    return x


def _pivot_case(rng, tower, rows, cols):
    """A seeded ``rows × cols`` matrix with exact zeros and, by chance, zero
    rows and columns, duplicate rows and a row that is a combination of two
    others; about a third of them hold 30+ digit entries."""
    big = rng.random() < 0.3
    m = [[_pivot_entry(rng, tower, big) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.3:
        m[rng.randrange(rows)] = [tower.zero()] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = tower.zero()
    if rows >= 2 and rng.random() < 0.3:
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    if rows >= 3 and rng.random() < 0.3:
        i, j, k = rng.sample(range(rows), 3)
        c = tower.rational(_big(rng) if big else _rat(rng))
        m[k] = [x * c - y for x, y in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize("tower", [QQ, K, L], ids=["depth0", "depth1", "depth2"])
def test_pivot_columns_match_rref(tower):
    rng = random.Random(21 + tower.depth)
    shapes, seen = set(), {"deficient": 0, "zero row": 0, "zero column": 0, "big": 0}
    for k in range(30 if tower.depth else 200):
        m = _pivot_case(rng, tower, k % 8 + 1, 3 * k % 8 + 1)
        pivots = linalg.rref(m)[1]
        assert linalg.pivot_columns([(0, row) for row in m]) == pivots
        assert linalg.rank(m) == len(pivots)
        rows, cols = linalg.mat_shape(m)
        shapes.add((rows > cols) - (rows < cols))
        seen["deficient"] += len(pivots) < min(rows, cols)
        seen["zero row"] += any(all(x.is_zero() for x in row) for row in m)
        seen["zero column"] += any(all(x.is_zero() for x in col) for col in linalg.transpose(m))
        seen["big"] += any(x.level == 0 and x.to_fraction().denominator >= 10**30
                           for row in m for x in row)
    assert shapes == {-1, 0, 1} and min(seen.values()) > 0, seen


def test_pivot_columns_at_level_zero_never_call_rref(monkeypatch):
    """Rationals of any tower, and the lattice system, take the integer
    path; a matrix with one entry above level 0 takes ``rref``."""
    rng = random.Random(24)
    cases = [_pivot_case(rng, QQ, k % 5 + 2, 2 * k % 7 + 2) for k in range(20)]
    cases.append(QQ_CASES[-1])
    cases.append([[K.rational(q) for q in row] for row in ((1, 2), (3, 4), (2, 4))])
    want = [linalg.rref(m)[1] for m in cases]

    def refuse(m):
        raise AssertionError("rref called at level 0")

    monkeypatch.setattr(linalg, "rref", refuse)
    assert [linalg.pivot_columns([(0, row) for row in m]) for m in cases] == want
    with pytest.raises(AssertionError, match="rref called"):
        linalg.pivot_columns([(0, [K.rational(1), K.gen()])])


# ---------------------------------------------------------------------------
# pivot columns on band rows: the one dispatcher


BAND_KINDS = {"ints": None, "level 0": K1, "K1": K1, "K2": K2}


def _band_value(rng, kind):
    if rng.random() < 0.3:
        return _band_zero(kind)
    if kind == "ints":
        return rng.randint(-10**12, 10**12)
    tower = BAND_KINDS[kind]
    return tower.rational(_rat(rng)) if kind == "level 0" else _pivot_entry(rng, tower, False)


def _band_zero(kind):
    """0, or the zero of ``kind``'s tower, which is at level 0."""
    if kind == "ints":
        return 0
    tower = BAND_KINDS[kind]
    return tower.rational(0) if kind == "level 0" else tower.zero()


def _band_case(rng, kind, cols):
    """Band rows of a ``cols``-column matrix of ``kind``: empty bands,
    all-zero bands, and copies of earlier bands among them."""
    zero = _band_zero(kind)
    bands = []
    for _ in range(rng.randint(0, 7)):
        lo = rng.randint(0, cols)
        width = rng.randint(0, cols - lo)
        shape = rng.random()
        if bands and shape < 0.2:
            bands.append(rng.choice(bands))
        elif shape < 0.35:
            bands.append((lo, [zero] * width))
        else:
            bands.append((lo, [_band_value(rng, kind) for _ in range(width)]))
    return bands


def _dense_pivots(bands, cols):
    """``rref``'s pivot list of the bands expanded to ``cols`` columns, ints
    read as rationals."""
    rows = [[QQ.rational(x) if type(x) is int else x for x in values] for _, values in bands]
    zero = next((x for row in rows for x in row), QQ.zero()).tower.zero()
    return linalg.rref([[zero] * lo + row + [zero] * (cols - lo - len(row))
                        for (lo, _), row in zip(bands, rows)])[1]


def test_pivot_columns_of_bands_match_rref_of_the_dense_rows(monkeypatch):
    """Ints, elements at level 0, and elements over the depth-1 and depth-2
    towers, as given and reversed the way ``flat_section_dim`` reverses
    them; only the tower bands reach ``rref``."""
    rng = random.Random(25)
    real_rref, calls = linalg.rref, []

    def counted(m):
        calls.append(len(m))
        return real_rref(m)

    monkeypatch.setattr(linalg, "rref", counted)
    seen = {"empty": 0, "all zero": 0, "deficient": 0}
    for kind in BAND_KINDS:
        for k in range(60 if kind in ("ints", "level 0") else 25):
            cols = k % 9 + 1
            bands = _band_case(rng, kind, cols)
            reversed_bands = [(cols - lo - len(v), v[::-1]) for lo, v in bands]
            for case in (bands, reversed_bands):
                want = _dense_pivots(case, cols)
                del calls[:]
                assert linalg.pivot_columns(case) == want, (kind, case)
                assert bool(calls) == (kind in ("K1", "K2") and any(
                    x.level for _, v in case for x in v)), kind
            seen["empty"] += any(not v for _, v in bands)
            seen["all zero"] += any(v and all(x == 0 for x in v) for _, v in bands)
            seen["deficient"] += len(_dense_pivots(bands, cols)) < len(bands)
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# charpoly against the element loop it replaced


def _element_charpoly(m):
    """Faddeev-LeVerrier on ``FieldElement`` operators, products term by term:
    the loop ``linalg.charpoly`` ran before it moved onto constant forms."""
    n = len(m)
    tower = common_context(m)
    coeffs = [tower.zero() for _ in range(n + 1)]
    coeffs[n] = tower.one()
    am = linalg.zeros(tower, n, n)
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] = am[i][i] + coeffs[n - k + 1]
        am = _mat_mul(m, am)
        coeffs[n - k] = -sum((am[i][i] for i in range(1, n)), am[0][0]) * Fraction(1, k)
    return coeffs


def _charpoly_cases(rng, tower, n):
    """Random entries on every level, 30-digit entries, rationals of the
    tower, and zero, scalar and nilpotent matrices."""
    scalar = _scalar(rng, tower)
    return [
        [[_scalar(rng, tower) for _ in range(n)] for _ in range(n)],
        [[_pivot_entry(rng, tower, big=True) for _ in range(n)] for _ in range(n)],
        [[tower.rational(_big(rng)) for _ in range(n)] for _ in range(n)],
        linalg.zeros(tower, n, n),
        [[scalar if i == j else tower.zero() for j in range(n)] for i in range(n)],
        [[_scalar(rng, tower) if j > i else tower.zero() for j in range(n)] for i in range(n)],
    ]


@pytest.mark.parametrize("tower", [QQ, K, L], ids=["depth0", "depth1", "depth2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_charpoly_matches_the_element_loop(tower, n):
    rng = random.Random(10 * tower.depth + n)
    for m in _charpoly_cases(rng, tower, n):
        got, want = linalg.charpoly(m), _element_charpoly(m)
        assert all(x.tower is common_context(m) for x in want)
        assert got == [x.form for x in want]
        assert got[n] == tower.one().form  # monic: the form of 1, at level 0
