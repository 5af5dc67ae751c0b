import math
import random
import time
from fractions import Fraction

import pytest

from mcred import checks, cohomology, linalg
from mcred.cohomology import (
    DeRhamDims,
    LatticeWindow,
    derham_dims,
    doubling_dims,
    dual_connection,
    euler_bound_check,
    flat_section_dim,
    h1_generators,
    ramified_decomposition_check,
    rs_spectrum,
    truncated_complex_dims,
)
from mcred.connection import Connection
from mcred.errors import DomainViolation, NotRegularSingular, PrecisionExhausted, Unstabilized
from mcred.field import FieldElement, FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def conn(entries, ram=1):
    return Connection(LaurentMatrix(QQ, entries, ram=ram))


def rank_one(residue):
    return conn([[S({-1: residue})]])


TRIVIAL = conn([[S({})]])
NILPOTENT_RESIDUE = conn([[S({}), S({-1: 1})], [S({}), S({})]])


def test_window_validation():
    with pytest.raises(DomainViolation):
        LatticeWindow(3, 3)
    w = LatticeWindow(-2, 2)
    assert w.width == 4


def test_truncated_complex_trivial_connection():
    dims = truncated_complex_dims(TRIVIAL, LatticeWindow(-3, 3))
    # constants in the kernel, the class of dt/t in the cokernel
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.chi == 0
    assert not dims.stabilized


def test_truncated_complex_unit_lead():
    c = conn([[S({-2: 1})]])
    for w in (LatticeWindow(-3, 3), LatticeWindow(-5, 5)):
        dims = truncated_complex_dims(c, w)
        assert (dims.h0, dims.h1) == (0, 0)


def test_truncated_complex_sees_the_cocycle():
    c = checks.sample_jump_family(1)
    dims = truncated_complex_dims(c, LatticeWindow(-4, 4))
    assert dims.h0 >= 1    # the flat section (t, -t^2) survives truncation


def test_truncated_complex_respects_precision():
    c = Connection(LaurentMatrix(QQ, [[S({-1: 1}, prec=2)]]))
    with pytest.raises(PrecisionExhausted):
        truncated_complex_dims(c, LatticeWindow(-4, 4))


def test_rs_spectrum_goldens():
    assert rs_spectrum([[QQ.rational(Fraction(1, 2))]]).entries == []
    assert rs_spectrum([[QQ.zero()]]).entries == [(0, 1)]
    diag = [[QQ.zero(), QQ.zero()], [QQ.zero(), QQ.rational(-3)]]
    assert rs_spectrum(diag).entries == [(0, 1), (3, 1)]


def test_rs_spectrum_counts_multiplicity():
    zero2 = [[QQ.zero(), QQ.zero()], [QQ.zero(), QQ.zero()]]
    assert rs_spectrum(zero2).entries == [(0, 2)]


def test_derham_rank_one_half_residue():
    dims = derham_dims(rank_one(Fraction(1, 2)))
    assert (dims.h0, dims.h1, dims.chi) == (0, 0, 0)
    assert dims.stabilized and dims.certificate == "spectrum-derived"


def test_derham_trivial():
    dims = derham_dims(TRIVIAL)
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.certificate == "spectrum-derived"


def test_derham_nilpotent_residue_detects_nontriviality():
    dims = derham_dims(NILPOTENT_RESIDUE)
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.h0 < NILPOTENT_RESIDUE.size
    # cross-check: the residue spectrum is {0} and accounts for the kernel
    assert rs_spectrum(NILPOTENT_RESIDUE.residue()).entries == [(0, 1)]


def test_derham_invertible_lead_is_acyclic():
    dims = derham_dims(conn([[S({-2: 1})]]))
    assert (dims.h0, dims.h1) == (0, 0)
    assert dims.certificate == "spectrum-derived"


def test_lambda_family_dichotomy():
    degenerate = derham_dims(rank_one(Fraction(1)))
    generic = derham_dims(rank_one(Fraction(1, 2)))
    assert (degenerate.h0, degenerate.h1) == (1, 1)
    assert (generic.h0, generic.h1) == (0, 0)


def test_integer_residues_all_give_cohomology():
    for ell in (-2, 0, 3):
        dims = derham_dims(rank_one(Fraction(ell)))
        assert (dims.h0, dims.h1) == (1, 1)


def test_euler_bound_check():
    assert euler_bound_check(TRIVIAL, derham_dims(TRIVIAL))
    c = checks.sample_jump_family(1)
    dims = derham_dims(c)
    assert euler_bound_check(c, dims)
    assert abs(dims.chi) <= (2 * c.pole_order + 1) * c.size


def test_euler_bound_check_refuses_nonzero_index_and_excess():
    window = LatticeWindow(-1, 1)
    for h0, h1 in ((1, 0), (0, 1), (2, 2)):
        dims = DeRhamDims(h0, h1, window, "window")
        assert not euler_bound_check(rank_one(Fraction(0)), dims)
    assert euler_bound_check(rank_one(Fraction(0)),
                             DeRhamDims(1, 1, window, "window"))


def test_h1_generators_goldens():
    gens = h1_generators(rank_one(Fraction(0)))
    assert len(gens) == 1
    (vec,) = gens
    assert vec[0].coincides_with(S({-1: 1}))   # dt/t
    assert h1_generators(rank_one(Fraction(1, 2))) == []
    zero2 = conn([[S({}), S({})], [S({}), S({})]])
    gens = h1_generators(zero2)
    assert len(gens) == 2
    assert gens[0][0].coincides_with(S({-1: 1})) and gens[0][1].is_zero()
    assert gens[1][1].coincides_with(S({-1: 1})) and gens[1][0].is_zero()


def test_h1_generators_span_h1():
    # spanning is checked against the truncated complex inside the call;
    # the count must match the certified dimension
    for c in (rank_one(Fraction(-1)), NILPOTENT_RESIDUE,
              conn([[S({-1: 2}), S({0: 1})], [S({}), S({-1: -1})]])):
        dims = derham_dims(c)
        assert len(h1_generators(c)) == dims.h1


def test_h1_generators_demand_regular_singularity():
    with pytest.raises(NotRegularSingular):
        h1_generators(conn([[S({-2: 1})]]))


def test_flat_sections_of_trivial_connection():
    assert flat_section_dim(TRIVIAL, LatticeWindow(-2, 2)) == 1
    assert flat_section_dim(rank_one(Fraction(1, 2)), LatticeWindow(-2, 2)) == 0


def test_dual_connection_negates_transpose():
    c = NILPOTENT_RESIDUE
    d = dual_connection(c)
    assert d.matrix.entry(1, 0).coincides_with(S({-1: -1}))
    assert d.matrix.entry(0, 1).is_zero()
    assert dual_connection(d).matrix.coincides_with(c.matrix)


def test_dual_connection_matches_the_scalar_product():
    """Negating the transpose gives the coefficients, levels and precisions
    the product by ``-1`` gave, on exact, truncated and tower inputs."""
    rng = random.Random(23)
    cases = [checks.random_connection(rng, n, r, kind=kind)
             for kind in checks.KINDS for n in (1, 2, 3) for r in (1, 2, 3)]
    cases += [c.truncate(3) for c in cases[:6]]
    cases += [_tower_connection(rng, K1, 2, 2), _tower_connection(rng, K2, 2, 1)]

    def key(m):
        return (m.ram, m.prec, [[(s.prec, s.ram, {e: (x.level, x) for e, x in s.coeffs.items()})
                                 for s in row] for row in m.entries])

    for c in cases:
        assert key(dual_connection(c).matrix) == key(c.matrix.transpose() * -1)


def test_doubling_dims_on_irregular_nilpotent_lead():
    # pole 2, nilpotent lead: no certificate path, the doubling fallback
    # must still respect h0 <= n
    for lam, expect in ((1, (2, 2)), (Fraction(1, 2), (0, 0)), (2, (2, 2))):
        dims = doubling_dims(checks.sample_jump_family(lam))
        assert (dims.h0, dims.h1) == expect
        assert dims.certificate == "window-doubling"
        assert dims.stabilized


def test_doubling_stops_at_the_column_bound(monkeypatch):
    """Doubling has one stop besides settling: the next window's system
    would be wider than ``MAX_LATTICE_COLUMNS``.  On this pole-19 nilpotent
    lead the windows [-20, 20) and [-40, 40) take 158 and 278 columns, the
    third would take 518, so two windows run (c and its dual on each)."""
    c = Connection.from_coeff_map(QQ, {-19: [[0, 1], [0, 0]], 0: [[0, 0], [1, 0]]}, 2)
    windows = []
    real = cohomology.flat_section_dim

    def counted(conn, w):
        windows.append(w)
        return real(conn, w)
    monkeypatch.setattr(cohomology, "flat_section_dim", counted)
    with pytest.raises(Unstabilized, match="at most 512 columns"):
        doubling_dims(c)
    assert windows == [LatticeWindow(-20, 20)] * 2 + [LatticeWindow(-40, 40)] * 2


def _end(c):
    """``End(c) = d + ad_G`` on ``gl_n`` (row-major coordinates); the
    identity is a flat section, so ``h0 >= 1``."""
    return Connection.from_coeff_map(
        c.tower, {e: linalg.ad_matrix(c.coeff(e)) for e in c.matrix.support()},
        c.size * c.size, c.prec, c.ram)


END_DIMS = {
    "saddle-node": ((2, 2), "window-doubling"),
    "ramified-pair": ((1, 1), "window-doubling"),
    "jump-integer": ((4, 4), "window-doubling"),
    "jump-half": ((4, 4), "window-doubling"),
    "half-residue": ((1, 1), "spectrum-derived"),
}


@pytest.mark.parametrize("name", sorted(END_DIMS))
def test_endomorphism_connection_has_flat_sections(name):
    c = checks.SAMPLES[name]()
    end = _end(c)
    n = c.size
    identity = LaurentMatrix.constant(
        QQ, [[int(i == j)] for i in range(n) for j in range(n)])
    assert end.apply_nabla(identity).is_zero()
    dims = derham_dims(end)
    assert dims.chi == 0 and 1 <= dims.h0 <= n * n
    assert ((dims.h0, dims.h1), dims.certificate) == END_DIMS[name]


def test_derham_routes_uncertified_inputs_to_doubling():
    dims = derham_dims(checks.sample_jump_family(1))
    assert dims.certificate == "window-doubling"
    assert (dims.h0, dims.h1) == (2, 2)


def test_spectrum_and_doubling_agree_on_regular_singular():
    for c in (TRIVIAL, rank_one(Fraction(1, 2)), rank_one(Fraction(2)),
              NILPOTENT_RESIDUE):
        certified = derham_dims(c)
        heuristic = doubling_dims(c)
        assert (certified.h0, certified.h1) == (heuristic.h0, heuristic.h1)


def test_dims_gauge_invariance_sample():
    rng = random.Random(14)
    c = checks.random_connection(rng, 2, 1)
    g = checks.random_unit_gauge(rng, 2)
    a = derham_dims(c)
    b = derham_dims(c.gauge(g))
    assert (a.h0, a.h1) == (b.h0, b.h1)
    m = checks.random_monomial_gauge(rng, 2)
    d = derham_dims(c.gauge(m))
    assert (a.h0, a.h1) == (d.h0, d.h1)


def test_invertible_lead_acyclicity_sweep():
    rng = random.Random(8)
    for _ in range(5):
        c = checks.random_connection(rng, rng.choice((1, 2)), rng.choice((2, 3)),
                                     kind="invertible_lead")
        dims = derham_dims(c)
        assert (dims.h0, dims.h1) == (0, 0)


def test_ramified_decomposition_goldens():
    assert ramified_decomposition_check(TRIVIAL, 2)
    assert ramified_decomposition_check(TRIVIAL, 1)
    assert ramified_decomposition_check(rank_one(Fraction(1, 2)), 2)


def test_ramified_decomposition_spec_table():
    for theta in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        for d in (2, 3):
            assert ramified_decomposition_check(checks.sample_residue_line(theta), d)


def test_flat_section_dim_demands_enough_tail():
    c = Connection(LaurentMatrix(QQ, [[S({-1: 1}, prec=0)]]))
    with pytest.raises(PrecisionExhausted) as info:
        flat_section_dim(c, LatticeWindow(-4, 4))
    assert info.value.needed is not None


def test_serialized_dims_shape():
    from mcred.serialize import encode_dims
    enc = encode_dims(derham_dims(TRIVIAL))
    assert enc == {
        "h0": 1, "h1": 1, "chi": 0,
        "window": [enc["window"][0], enc["window"][1]],
        "stabilized": True,
        "certificate": "spectrum-derived",
    }


# -- the lattice builder against the per-block oracle --------------------------


def _old_nabla_rows(c, j, k_min, width):
    """The per-block path the builder replaced: the n rows of ``∇`` landing
    on ``u**j du``, each block a fresh grid read through ``Connection.coeff``."""
    n = c.size
    zero = c.tower.zero()
    block = [[zero] * (n * width) for _ in range(n)]
    for kx in range(width):
        k = k_min + kx
        grid = c.coeff(j - k)
        for a in range(n):
            for b in range(n):
                x = grid[a][b]
                if a == b and j == k - 1:
                    x = x + k
                block[a][kx * n + b] = x
    return block


def _old_system(caller, c, w):
    """The system the per-block path handed to ``caller``'s elimination on
    ``w``, behind that caller's own precision guard."""
    m = cohomology._pole_shift(c)
    if caller is truncated_complex_dims:
        need = w.width - m
        if c.prec is not INF and c.prec < need:
            raise PrecisionExhausted(
                f"window {w.n_min, w.n_max} needs coefficients up to exponent "
                f"{need} but the connection is only known below {c.prec}",
                needed=need)
        return [row for j in range(w.n_min - m, w.n_max - m)
                for row in _old_nabla_rows(c, j, w.n_min, w.width)]
    top = w.n_max + w.width // 2 + m
    need = top - m - w.n_min
    if c.prec is not INF and c.prec < need:
        raise PrecisionExhausted(
            f"certifying flat sections on window {w.n_min, w.n_max} needs "
            f"coefficients up to exponent {need} but the connection is "
            f"only known below {c.prec}",
            needed=need)
    lo = min([w.n_min - 1] + [w.n_min + e for e in c.matrix.support()])
    return [row for j in range(lo, top - m)
            for row in _old_nabla_rows(c, j, w.n_min, top - w.n_min)]


def _need(caller, c, w):
    """The ``needed`` of ``caller``'s precision guard on ``w``."""
    return (w.width - cohomology._pole_shift(c) if caller is truncated_complex_dims
            else w.width + w.width // 2)


class _Built(Exception):
    pass


def _outcome(build, caller, c, w):
    """What ``build`` gives for ``caller`` on ``w``: the system, or the
    :class:`PrecisionExhausted` it raises."""
    try:
        return build(caller, c, w)
    except PrecisionExhausted as exc:
        return exc


def _new_system(caller, c, w):
    """The system ``caller`` itself builds, caught before its elimination."""
    real = cohomology._lattice

    def spy(*args):
        raise _Built(real(*args))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "_lattice", spy)
        try:
            caller(c, w)
        except _Built as built:
            return built.args[0]
    raise AssertionError(f"{caller.__name__} built no lattice")  # pragma: no cover


def _cleared(row):
    """An oracle row as the elimination read it before the builder emitted
    integers: each value times the lcm of the row's denominators."""
    values = [x.to_fraction() for x in row]
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values]


def _assert_same_system(caller, c, w):
    """The builder's system against the oracle's, row by row: each band
    must lie inside the row, and expanded to its dense row, an integer band
    must equal the oracle's row cleared of its denominators and an element
    band must hold the oracle's elements (value and level).  Returns which
    rows were built, or ``None`` when both refuse the precision."""
    got, want = _outcome(_new_system, caller, c, w), _outcome(_old_system, caller, c, w)
    if isinstance(want, PrecisionExhausted):
        assert isinstance(got, PrecisionExhausted)
        assert (str(got), got.needed) == (str(want), want.needed)
        return None
    assert len(got) == len(want)
    integral = type(next(v[0] for _, v in got if v)) is int
    zero = 0 if integral else c.tower.zero()
    for (lo, values), old in zip(got, want):
        assert 0 <= lo and lo + len(values) <= len(old)
        row = [zero] * lo + values + [zero] * (len(old) - lo - len(values))
        if integral:
            assert all(type(x) is int for x in values) and row == _cleared(old)
        else:
            assert all(isinstance(x, FieldElement) for x in values)
            assert all(x == y and x.level == y.level for x, y in zip(row, old))
    return "integer rows" if integral else "element rows"


K1 = QQ.extend([-2, 0, 1])              # sqrt(2)
K2 = K1.extend([-K1.gen(), 0, 0, 1])    # a cube root of sqrt(2)


def _tower_connection(rng, tower, n, r, rational=False):
    """Pole order ``r`` over ``tower``, coefficients at every level, or all at
    level 0 if ``rational``."""
    gens = [tower.rational(1)] + [tower.gen(k) for k in range(1, tower.depth + 1)
                                  if not rational]

    def grid():
        return [[rng.choice(gens) * checks.random_rational(rng) for _ in range(n)]
                for _ in range(n)]

    return Connection.from_coeff_map(tower, {e: grid() for e in range(-r, 2)}, n)


def _lattice_cases():
    """Connections with the rows their systems must come in: integer rows
    when every coefficient sits at level 0, over QQ or over a tower."""
    rng = random.Random(18)
    cases = [checks.random_connection(rng, n, r, kind=kind)
             for kind in checks.KINDS for n in (1, 2, 3) for r in (0, 1, 2, 3)]
    cases += [checks.SAMPLES["saddle-node"]().ramify(2),
              checks.random_connection(rng, 2, 2, kind="nilpotent_lead").ramify(2)]
    cases = [(c, "integer rows") for c in cases]
    cases += [(_tower_connection(rng, K1, 2, 2), "element rows"),
              (_tower_connection(rng, K2, 2, 1), "element rows"),
              (_tower_connection(rng, K1, 2, 2, rational=True), "integer rows"),
              (_tower_connection(rng, K2, 2, 1, rational=True), "integer rows")]
    return cases


TRUNCATED_WINDOWS = (LatticeWindow(0, 1), LatticeWindow(-1, 1), LatticeWindow(2, 5),
                     LatticeWindow(-3, 3))
FLAT_WINDOWS = (LatticeWindow(0, 1), LatticeWindow(-2, 2))


def test_lattice_systems_match_the_per_block_oracle():
    """Row by row (see :func:`_assert_same_system`) on exact and truncated
    inputs, for both callers' windows; the truncated-complex windows narrower
    than the pole shift have no ``k`` on the diagonal, the rest do.  Each
    case builds the rows :func:`_lattice_cases` names for it."""
    rng = random.Random(19)
    built = {"diagonal": 0, "no diagonal": 0, "truncated input": 0, "integer rows": 0,
             "element rows": 0, "integer rows over a tower": 0}
    for c, want in _lattice_cases():
        m = cohomology._pole_shift(c)
        for caller, windows in ((truncated_complex_dims, TRUNCATED_WINDOWS),
                                (flat_section_dim, FLAT_WINDOWS)):
            for w in windows:
                for d in (INF, _need(caller, c, w) + rng.randint(-1, 2)):
                    path = _assert_same_system(caller, c.truncate(d), w)
                    if path is None:
                        continue
                    assert path == want
                    built[path] += 1
                    if path == "integer rows" and c.tower.depth:
                        built["integer rows over a tower"] += 1
                    if d is not INF:
                        built["truncated input"] += 1
                    if caller is truncated_complex_dims and w.width < m:
                        built["no diagonal"] += 1
                    else:
                        built["diagonal"] += 1
    assert min(built.values()) > 0, built


@pytest.mark.parametrize("caller", [truncated_complex_dims, flat_section_dim])
def test_lattice_precision_guard_boundary(caller):
    """Precision ``need - 1`` raises with the oracle's message and
    ``needed``; precision ``need`` and the exact input build, eliminate and
    count what the oracle counts: ``n·width`` less the rank of the square
    system, or the null-space count of the flat-section system.  The inputs
    are every kind at n = 1..3 and pole order 0..3 plus one over Q(√2), on
    windows of width 1..8 at offsets −5..2, so some windows are narrower
    than the pole shift."""
    rng = random.Random(20)
    cases = [checks.random_connection(rng, n, r, kind=kind)
             for kind in checks.KINDS for n in (1, 2, 3) for r in (0, 1, 2, 3)]
    cases.append(_tower_connection(rng, K1, 2, 2))
    windows = [LatticeWindow(a, a + width) for width in range(1, 9) for a in range(-5, 3)]
    narrow = 0
    for c in cases:
        # the flat-section oracle eliminates dense systems of up to 45
        # columns; a sample of the windows keeps it quick
        for w in windows if caller is truncated_complex_dims else rng.sample(windows, 6):
            need = _need(caller, c, w)
            short = c.truncate(need - 1)
            with pytest.raises(PrecisionExhausted) as got:
                caller(short, w)
            with pytest.raises(PrecisionExhausted) as want:
                _old_system(caller, short, w)
            assert (str(got.value), got.value.needed) == (str(want.value), need)
            for d in (need, INF):
                enough = c.truncate(d)
                if caller is flat_section_dim:
                    assert caller(enough, w) == _old_flat_section_dim(enough, w)
                else:
                    rank = len(linalg.rref(_old_system(caller, enough, w))[1])
                    assert caller(enough, w).h0 == enough.size * w.width - rank
            narrow += w.width < cohomology._pole_shift(c)
    assert narrow > 0


def test_a_window_past_the_column_bound_counts_in_a_second():
    """The rank-8, pole-2 nilpotent-lead window (−64, 64) has 1,024 columns,
    twice ``MAX_LATTICE_COLUMNS``; as a library call it returns h0 = 2 well
    inside a second (a count pivoting each row on its highest known
    coefficient took about 2 s)."""
    c = checks.random_connection(random.Random(1), 8, 2, kind="nilpotent_lead")
    start = time.perf_counter()
    dims = truncated_complex_dims(c, LatticeWindow(-64, 64))
    assert time.perf_counter() - start < 1.0
    assert (dims.h0, dims.h1) == (2, 2)


# -- the flat-section count against the null-space oracle ----------------------


def _old_flat_section_dim(c, w):
    """The count ``flat_section_dim`` took before it eliminated pivots only:
    a null-space basis of the flat-section system, then the rank of its
    restrictions to the ``w``-coordinates."""
    basis = linalg.nullspace(_old_system(flat_section_dim, c, w))
    if not basis:
        return 0
    return linalg.rank([vec[: c.size * w.width] for vec in basis])


def _doubling_windows(c, max_cols=96):
    """The windows :func:`doubling_dims` visits on ``c``, up to systems of
    ``max_cols`` columns."""
    out, w = [], cohomology._pole_shift(c) + 1
    while True:
        window = LatticeWindow(-w, w)
        if c.size * (cohomology._flat_top(c, window) - window.n_min) > max_cols:
            return out
        out.append(window)
        w *= 2


def _flat_cases():
    """The samples, ``End`` of each, the ``derham-irregular`` benchmark
    inputs of seeds 1–3, two ramified inputs and one over a depth-1 tower,
    each with its dual connection."""
    cases = [make() for make in checks.SAMPLES.values()]
    cases += [_end(c) for c in list(cases)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        cases += [checks.random_connection(rng, 2 + i % 2, 2 + i // 2 % 2,
                                           kind="nilpotent_lead") for i in range(4)]
    rng = random.Random(22)
    cases += [checks.SAMPLES["saddle-node"]().ramify(2),
              checks.random_connection(rng, 2, 2, kind="nilpotent_lead").ramify(2),
              _tower_connection(rng, K1, 2, 2)]
    return [x for c in cases for x in (c, dual_connection(c))]


def test_flat_section_dim_matches_the_nullspace_oracle():
    counted = 0
    for c in _flat_cases():
        for w in FLAT_WINDOWS + tuple(_doubling_windows(c)):
            assert flat_section_dim(c, w) == _old_flat_section_dim(c, w), (c, w)
            counted += 1
    assert counted > 100


def test_flat_section_dim_calls_no_rref_or_nullspace(monkeypatch):
    """Over QQ the count runs on the integer pivot path alone."""
    def refuse(*args):
        raise AssertionError("full elimination called")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    c = checks.sample_jump_family(1)
    assert flat_section_dim(c, LatticeWindow(-4, 4)) == 2
