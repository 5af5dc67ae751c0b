import random
from fractions import Fraction

import pytest

from mcred import checks, leading, linalg, reduction, serialize, sl2
from mcred.connection import Connection
from mcred.errors import DomainViolation, EngineError, LinearSolveFailed, ScalarLeadingTerm
from mcred.field import FieldTower
from mcred.leading import (
    AdSplitting,
    eigen_block_split,
    is_scalar_matrix,
    jordan_chevalley,
    rational_roots,
    sibuya_normalize,
    splitting_from_semisimple,
    splitting_from_sl2,
)
from mcred.matrices import LaurentMatrix, matrix_exp
from mcred.series import LaurentSeries
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


def test_rational_roots():
    # x(x - 2)
    assert rational_roots([QQ.zero(), QQ.rational(-2), QQ.one()]) == [0, 2]
    # 2x^2 - x  has roots 0 and 1/2
    roots = rational_roots([QQ.zero(), QQ.rational(-1), QQ.rational(2)])
    assert roots == [0, Fraction(1, 2)]
    # x^2 - 2 has none
    assert rational_roots([QQ.rational(-2), QQ.zero(), QQ.one()]) == []


def test_is_scalar_matrix():
    assert is_scalar_matrix(grid([[3, 0], [0, 3]]))
    assert not is_scalar_matrix(grid([[3, 0], [0, 2]]))
    assert not is_scalar_matrix(grid([[3, 1], [0, 3]]))


def test_split_rejects_scalar_semisimple_part():
    c = Connection(LaurentMatrix(QQ, [[S({-2: 5}), S({})],
                                      [S({}), S({-2: 5})]]).truncate(0))
    with pytest.raises(ScalarLeadingTerm):
        eigen_block_split(c, c.leading())


def _sample(prec=2):
    m = LaurentMatrix(QQ, [
        [S({-2: 1, -1: 2}), S({-1: 3, 0: 1})],
        [S({-1: 1, 1: 4}), S({-2: -1, 0: 5})],
    ])
    return Connection(m.truncate(prec))


def test_sibuya_normalize_pushes_tails_into_kernel():
    c = _sample()
    rec = sibuya_normalize(c, splitting_from_semisimple(c.leading()))
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
    rec = sibuya_normalize(c, splitting_from_semisimple(c.leading()))
    assert c.gauge(rec.gauge).matrix.coincides_with(rec.connection.matrix)


def test_sibuya_locality():
    # the step-i correction depends only on coefficients up to -r + i, so a
    # perturbation strictly above -r + 2 cannot change the first two steps
    c = _sample(prec=3)
    bumped = Connection(
        (c.matrix + LaurentMatrix(QQ, [[S({}), S({1: 7})], [S({}), S({})]])
         ).truncate(3))
    rec = sibuya_normalize(c, splitting_from_semisimple(c.leading()))
    rec2 = sibuya_normalize(bumped, splitting_from_semisimple(bumped.leading()))
    assert str(rec.corrections[0]) == str(rec2.corrections[0])
    assert str(rec.corrections[1]) == str(rec2.corrections[1])
    assert str(rec.corrections[2]) != str(rec2.corrections[2])


def _old_sibuya(c, splitting):
    """The per-step loop ``sibuya_normalize`` replaced: one ``solve`` against
    the kernel+target basis and one against ``ad(lead)`` for every step.
    Returns ``(corrections, gauge, connection)``."""
    n = c.size
    nn = n * n
    lead = c.leading()
    r = -c.valuation
    kernel, target, source = splitting.kernel, splitting.target, splitting.source
    basis = [[v[i] for v in kernel + target] for i in range(nn)]
    source_mat = [[v[i] for v in source] for i in range(nn)]
    solve_mat = _mat_mul(linalg.ad_matrix(lead), source_mat)

    def target_component(coeff):
        x = linalg.solve(basis, [y for row in coeff for y in row])
        out = [QQ.zero() for _ in range(nn)]
        for j, xj in enumerate(x[len(kernel):]):
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
        out.append((c, splitting_from_semisimple(jordan_chevalley(c.leading()).semisimple)))
        c = Connection.from_coeff_map(tower, {-2: [[0, 1], [0, 0]], **higher}, 2,
                                      prec=2, ram=nil_ram)
        triple = sl2.jacobson_morozov(c.leading())
        c = c.gauge(LaurentMatrix.constant(tower, triple.basis_inv, c.ram))
        out.append((c, splitting_from_sl2(triple.e, triple.f)))
    return out


def _sibuya_inputs():
    """Seeded truncated inputs with the splitting the reduction would pick:
    ``ad-semisimple`` for a non-scalar semisimple lead part, ``ad-sl2`` (in
    the standard chain basis) for a nilpotent lead; then the tower inputs of
    :func:`_tower_sibuya_inputs`."""
    rng = random.Random(5)
    out = []
    for n, r, prec in ((2, 2, 3), (2, 3, 2), (3, 2, 1)):
        c = checks.random_connection(rng, n, r, kind="generic", prec=prec)
        jc = jordan_chevalley(c.leading())
        if not is_scalar_matrix(jc.semisimple):
            out.append((c, splitting_from_semisimple(jc.semisimple)))
    for n, r, prec in ((2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 0)):
        c = checks.random_connection(rng, n, r, kind="nilpotent_lead", prec=prec)
        triple = sl2.jacobson_morozov(c.leading())
        c = c.gauge(LaurentMatrix.constant(QQ, triple.basis_inv))
        out.append((c, splitting_from_sl2(triple.e, triple.f)))
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

    def spy(c, splitting):
        calls.append((c, splitting))
        return sibuya_normalize(c, splitting)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "sibuya_normalize", spy)
        reduction.reduce(c)
    out = [next(call for call in calls if call[0].ram >= 4)]
    c = checks.random_connection(random.Random(3), 3, 3, kind="nilpotent_lead",
                                 prec=48).truncate(8)
    triple = sl2.jacobson_morozov(c.leading())
    c = c.gauge(LaurentMatrix.constant(QQ, triple.basis_inv))
    return out + [(c, splitting_from_sl2(triple.e, triple.f))]


def test_long_sibuya_inputs_take_long_step_loops():
    (replay, replay_split), (rank3, rank3_split) = _long_sibuya_inputs()
    assert replay.ram >= 4 and len(sibuya_normalize(replay, replay_split).corrections) >= 10
    assert rank3.size == 3 and len(sibuya_normalize(rank3, rank3_split).corrections) >= 10


def _encoded(m):
    return serialize.dumps(serialize.encode_matrix(m))


def test_sibuya_normalize_matches_the_per_step_solve():
    inputs = _sibuya_inputs()
    assert {sp.label for _, sp in inputs} == {"ad-semisimple", "ad-sl2"}
    assert {(c.tower.depth, c.ram) for c, _ in inputs} == {(0, 1), (1, 1), (1, 3),
                                                           (2, 1), (2, 3)}
    for c, splitting in inputs + _long_sibuya_inputs():
        rec = sibuya_normalize(c, splitting)
        corrections, gauge, work = _old_sibuya(c, splitting)
        assert rec.corrections, "the input needs no normalization step"
        assert [i for i, _ in rec.corrections] == [i for i, _ in corrections]
        for (_, new), (_, old) in zip(rec.corrections, corrections):
            assert _grids_equal(new, old) and str(new) == str(old)
        assert rec.gauge == gauge and _encoded(rec.gauge) == _encoded(gauge)
        assert (rec.connection.matrix == work.matrix
                and _encoded(rec.connection.matrix) == _encoded(work.matrix))


def test_sibuya_normalize_refusals():
    c = _sample()  # lead diag(1, -1): kernel the diagonal, target the off-diagonal
    sp = splitting_from_semisimple(c.leading())
    assert len(sp.kernel) == len(sp.target) == 2
    exact = Connection(LaurentMatrix(QQ, [[S({-2: 1}), S({})], [S({}), S({-2: -1})]]))
    with pytest.raises(DomainViolation, match="needs a truncated connection"):
        sibuya_normalize(exact, sp)
    simple_pole = Connection.from_coeff_map(QQ, {-1: [[1, 0], [0, -1]]}, 2, prec=1)
    with pytest.raises(DomainViolation, match="requires a pole of order >= 2"):
        sibuya_normalize(simple_pole, sp)
    with pytest.raises(DomainViolation, match="complementary dimensions"):
        sibuya_normalize(c, AdSplitting(sp.kernel, sp.target[:1], sp.source))
    with pytest.raises(DomainViolation, match="do not span gl_n"):
        sibuya_normalize(c, AdSplitting(sp.kernel, [sp.kernel[0], sp.target[0]], sp.source))
    # ad(lead) kills the identity, so no source vector reaches the target
    identity = [QQ.one(), QQ.zero(), QQ.zero(), QQ.one()]
    with pytest.raises(LinearSolveFailed, match="inconsistent linear system"):
        sibuya_normalize(c, AdSplitting(sp.kernel, sp.target, [identity]))


@pytest.mark.parametrize("offset", [1, 2])
def test_sibuya_leftover_check_names_the_first_offset_left(monkeypatch, offset):
    # the lead diag(1, 2) has the diagonal as kernel; the off-diagonal
    # coefficients at offsets ``offset`` and 3 are left with a target component
    # when every step gauge is the identity
    diagonal, upper = [[3, 0], [0, 4]], [[0, 1], [0, 0]]
    higher = {-1: upper, 0: diagonal} if offset == 1 else {-1: diagonal, 0: upper}
    c = Connection.from_coeff_map(QQ, {-2: [[1, 0], [0, 2]], **higher, 1: [[0, 0], [5, 0]]},
                                  2, prec=2)
    sp = splitting_from_semisimple(c.leading())
    assert [i for i, _ in sibuya_normalize(c, sp).corrections][0] == offset
    ident = [[leading._ONE if a == b else None for b in range(2)] for a in range(2)]
    no_dlog = [[(None, None)] * 2 for _ in range(2)]
    monkeypatch.setattr(leading, "_step_gauge", lambda *args: (ident, ident, no_dlog))
    with pytest.raises(EngineError, match=f"coefficient at offset {offset} still has a component"):
        sibuya_normalize(c, sp)


def test_eigen_block_split_rational_eigenvalues():
    m = LaurentMatrix(QQ, [[S({-2: 0}), S({-2: 1})], [S({-2: 1}), S({})]])
    c = Connection(m.truncate(1))
    rec = sibuya_normalize(c, splitting_from_semisimple(c.leading()))
    out = eigen_block_split(rec.connection, rec.connection.leading())
    assert out.sizes == [1, 1]
    assert out.tower.depth == 0      # +-1 need no extension
    # block_split refuses nonzero off-diagonal entries
    moved = rec.connection.gauge(out.transform).block_split(out.sizes)
    assert len(moved) == len(out.blocks)
    assert all(m.matrix.coincides_with(b.matrix) for m, b in zip(moved, out.blocks))


def test_eigen_block_split_adjoins_a_root_when_needed():
    m = LaurentMatrix(QQ, [[S({}), S({-2: 1})], [S({-2: 2}), S({})]])
    c = Connection(m.truncate(1))
    rec = sibuya_normalize(c, splitting_from_semisimple(c.leading()))
    out = eigen_block_split(rec.connection, rec.connection.leading())
    assert out.sizes == [1, 1]
    assert out.tower.depth == 1      # a root of x^2 - 2 was adjoined
    lead0 = out.blocks[0].leading()[0][0]
    # the adjoined root really squares to 2
    assert (lead0 * lead0 - out.tower.rational(2)).is_zero()
