import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mcred
from mcred import checks, leading, linalg, matrices, reduction, serialize
from mcred.connection import Connection
from mcred.errors import EngineError, PrecisionExhausted
from mcred.field import FieldTower, common_context
from mcred.leading import commutes, jordan_chevalley, sibuya_normalize
from mcred.matrices import LaurentMatrix
from mcred.reduction import (
    KNOWN_SHARP,
    compute_alpha,
    default_working_precision,
    reduce,
    replay,
    shear,
    slodowy_prediction,
    stability_constant,
)
from mcred.series import INF, LaurentSeries
from mcred.sl2 import jacobson_morozov

QQ = FieldTower()


def _leaves(node):
    if not node.children:
        return [node]
    out = []
    for ch in node.children:
        out.extend(_leaves(ch))
    return out


def _residue_fractions(node):
    return [[x.to_fraction() for x in row] for row in node.residue]


# ---------------------------------------------------------------------------
# shearing machinery
# ---------------------------------------------------------------------------


def test_compute_alpha_golden():
    c = checks.sample_ramified_pair().truncate(6)
    weights = jacobson_morozov(c.leading()).weights
    sd = compute_alpha(c, weights)
    assert sd.alpha == Fraction(1, 4)
    assert sd.critical == [(-1, 2)]


def test_compute_alpha_empty_set_is_none():
    # nothing above the lead: the minimum runs over an empty set
    m = LaurentMatrix(QQ, [[LaurentSeries(QQ, {}), LaurentSeries(QQ, {})],
                           [LaurentSeries(QQ, {-2: 1}), LaurentSeries(QQ, {})]])
    c = Connection(m.truncate(4))
    weights = jacobson_morozov(c.leading()).weights
    assert compute_alpha(c, weights).alpha is None


def test_shear_ramifies_by_denominator():
    c = checks.sample_ramified_pair().truncate(6)
    weights = jacobson_morozov(c.leading()).weights
    sheared, b, gauge = shear(c, weights, Fraction(-1, 4))
    assert b == 4
    assert sheared.ram == 4
    assert sheared.pole_order == 3
    # recorded gauge is diag(u^-1, u) over u = t^{1/4}
    assert gauge.entry(0, 0).support() == [-1]
    assert gauge.entry(1, 1).support() == [1]


def test_slodowy_prediction_matches_sheared_lead():
    c = checks.sample_ramified_pair().truncate(6)
    tr = jacobson_morozov(c.leading())
    sd = compute_alpha(c, tr.weights)
    sheared, b, _ = shear(c, tr.weights, -sd.alpha)
    predicted = slodowy_prediction(c, tr.weights, tr.f, sd)
    got = sheared.leading()
    for prow, grow in zip(predicted, got):
        for p, g in zip(prow, grow):
            # sheared lead is in du units: divide by the cover degree
            assert (g - p * sheared.tower.rational(b)).is_zero()


# ---------------------------------------------------------------------------
# full reductions
# ---------------------------------------------------------------------------


def test_saddle_node_reduces_to_regular_singular():
    tree = reduce(checks.sample_saddle_node())
    root = tree.root
    assert root.leaf is not None
    assert root.kind == "regular_singular"
    assert root.ram == 2
    assert _residue_fractions(root) == [
        [Fraction(1, 2), Fraction(1)],
        [Fraction(1), Fraction(-1, 2)],
    ]
    # the shear is recorded as the monomial gauge diag(t^{-1/2}, t^{1/2})
    diag = [g for kind, g in root.ops if kind == "gauge" and g.ram == 2]
    assert any(g.entry(0, 0).support() == [-1] and g.entry(1, 1).support() == [1]
               for g in diag)
    assert ("ramify", 2) in root.ops


def test_ramified_pair_splits_into_rank_one_leaves():
    tree = reduce(checks.sample_ramified_pair())
    root = tree.root
    assert root.kind == "descend"
    assert root.alpha == Fraction(1, 4)
    # recorded shear gauge diag(t^{-1/4}, t^{1/4})
    diag = [g for kind, g in root.ops if kind == "gauge" and g.ram == 4]
    assert any(g.entry(0, 0).support() == [-1] and g.entry(1, 1).support() == [1]
               for g in diag)
    (inner,) = root.children
    assert inner.kind == "split"
    assert inner.sizes == [1, 1]
    leaves = _leaves(root)
    assert [leaf.kind for leaf in leaves] == ["rank_one", "rank_one"]
    assert all(leaf.ram == 4 for leaf in leaves)


def test_jump_family_is_regular_singular_after_shear():
    tree = reduce(checks.sample_jump_family(1))
    assert tree.root.kind == "regular_singular"
    assert tree.root.ram == 2


def test_replay_reproduces_leaves():
    for sample in (checks.sample_saddle_node(), checks.sample_ramified_pair(),
                   checks.sample_jump_family(Fraction(1, 2))):
        tree = reduce(sample)
        assert replay(tree)


def test_replay_on_random_connections():
    rng = random.Random(23)
    for k in range(6):
        c = checks.random_connection(rng, 2, 2, kind=checks.KINDS[k % 4])
        tree = reduce(c)
        assert replay(tree, c)


def test_measure_strictly_decreases_on_recursion_edges():
    rng = random.Random(31)
    seen = 0
    for k in range(8):
        c = checks.random_connection(rng, rng.choice((2, 3)), 2,
                                     kind=("nilpotent_lead", "generic")[k % 2])
        tree = reduce(c)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for ch in node.children:
                if ch.measure is not None and node.measure is not None:
                    assert ch.measure < node.measure
                    seen += 1
                stack.extend([ch])
    assert seen > 0


def test_zero_divisor_split_restarts_with_the_factorization():
    # the lead's eigenvalues +-s lie in K, but the split only looks for
    # rational roots, so it adjoins a root of x**2 - 2, which factors over K;
    # the restart splits by the remembered factorization instead
    K = QQ.extend([-2, 0, 1])
    s = K.gen()
    c = Connection.from_coeff_map(K, {-2: [[s, 0], [0, -s]],
                                      -1: [[1, 2], [3, 4]]}, 2)
    tree = reduce(c)
    assert tree.restarts == 1
    leaves = list(tree.leaves())
    assert [leaf.kind for leaf in leaves] == ["rank_one", "rank_one"]
    assert all(leaf.leaf.tower.depth == 1 for leaf in leaves)
    assert replay(tree) is True


def test_the_restart_cap_names_its_limit(monkeypatch):
    """The seed-1 rank-4 nilpotent-lead draw restarts once; with no restart
    allowed, the error names the limit rather than a failed factorization."""
    c = checks.random_connection(random.Random(1), 4, 2, kind="nilpotent_lead")
    assert reduce(c).restarts == 1
    monkeypatch.setattr(reduction, "_MAX_RESTARTS", 0)
    with pytest.raises(EngineError, match="reached its limit of 0 restarts"):
        reduce(c)


def test_each_lead_is_factored_once(monkeypatch):
    """On the 24 seed-1 ``reduce-replay`` benchmark inputs every
    characteristic polynomial ``reduce`` takes is one node's
    ``jordan_chevalley``: a split node reuses its ``minpoly``."""
    calls = {"charpoly": 0, "jordan_chevalley": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(linalg, "charpoly")
    spy(reduction, "jordan_chevalley")
    rng = random.Random(1)
    for i in range(24):
        reduce(checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2,
                                        kind=("generic", "invertible_lead",
                                              "nilpotent_lead")[i % 3]))
    assert calls == {"charpoly": 43, "jordan_chevalley": 43}


def _benchmark_inputs(seed):
    """The 24 ``reduce-replay`` benchmark inputs of ``seed``."""
    rng = random.Random(seed)
    return [checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2,
                                     kind=("generic", "invertible_lead",
                                           "nilpotent_lead")[i % 3])
            for i in range(24)]


def _nodes(node):
    """The nodes of a subtree in the order replay visits them."""
    yield node
    for child in node.children:
        yield from _nodes(child)


def test_trees_hold_no_inverse_and_only_non_constant_gauges_take_cofactors(monkeypatch):
    """A node holds nothing that ``serialize.encode_tree`` does not write, so
    ``replay`` is ``c.gauge(g)`` for every gauge op.  The exact constant
    gauges (chain bases and split transforms) invert by elimination; the
    cofactor expansion runs only on the others: in ``reduce`` on the shears,
    in ``replay`` on the shears and the Sibuya totals that took a step (the
    identity of a stepless one needs no inverse)."""
    written = {"kind", "size", "ram", "pole", "ops", "children", "sizes", "leaf", "residue",
               "measure", "alpha", "shear_base", "lead_partition"}
    assert {f.name for f in dataclasses.fields(reduction.ReductionNode)} == written
    cofactored = []
    cofactor_inverse = matrices._cofactor_inverse

    def counted(m):
        cofactored.append(m)
        return cofactor_inverse(m)

    monkeypatch.setattr(matrices, "_cofactor_inverse", counted)
    samples = [make() for make in checks.SAMPLES.values()]
    kinds = {"constant": 0, "shear": 0, "total": 0}
    for c in samples + _benchmark_inputs(1) + _benchmark_inputs(2):
        tree = reduce(c)
        shears, others = [], []
        for node in _nodes(tree.root):
            gauges = [g for tag, g in node.ops if tag == "gauge"]
            for g in gauges:
                if g == LaurentMatrix.identity(g.tower, g.size, g.ram):
                    continue
                if g.is_exact() and g.support() in ([0], []):
                    kinds["constant"] += 1
                    continue
                others.append(g)
                if node.shear_base is not None and g is gauges[-1]:
                    shears.append(g)
                else:
                    assert g.prec is not INF
                    kinds["total"] += 1
        kinds["shear"] += len(shears)
        assert [id(g) for g in cofactored] == [id(g) for g in shears]
        cofactored.clear()
        assert replay(tree) is True
        assert [id(g) for g in cofactored] == [id(g) for g in others]
        cofactored.clear()
    assert all(kinds.values()), kinds


def test_split_blocks_that_keep_their_parent_lead_take_no_elimination(monkeypatch):
    """A split block whose lead is the block of its parent's lead commutes
    with its own semisimple part, so its ``sibuya_normalize`` gives back the
    block itself, the exact identity and no corrections before any
    elimination.  On the 24 seed-1 benchmark inputs ``reduce`` normalizes 43
    times; 12 of those calls are such blocks, so ``linalg.kernel_and_image``
    runs 31 times."""
    calls, eliminations, blocks = [], [], []
    real_normalize, real_split = reduction.sibuya_normalize, reduction.eigen_block_split
    real_kernel = linalg.kernel_and_image

    def spy_kernel(m):
        eliminations.append(m)
        return real_kernel(m)

    def spy_normalize(c, x):
        before = len(eliminations)
        rec = real_normalize(c, x)
        calls.append((c, rec, len(eliminations) - before))
        return rec

    def spy_split(c, jc, hints=None):
        out = real_split(c, jc, hints)
        blocks.extend((block, c.valuation) for block in out.blocks)
        return out

    monkeypatch.setattr(leading.linalg, "kernel_and_image", spy_kernel)
    monkeypatch.setattr(reduction, "sibuya_normalize", spy_normalize)
    monkeypatch.setattr(reduction, "eigen_block_split", spy_split)
    for c in _benchmark_inputs(1):
        assert replay(reduce(c), c)
    kept = [block for block, v in blocks if block.valuation == v
            and len(jordan_chevalley(block.leading()).minpoly) > 2]
    assert len(calls) == 43 and len(eliminations) == 31 and len(kept) == 12
    assert all(taken in (0, 1) for _, _, taken in calls)
    skipped = [(c, rec) for c, rec, taken in calls if not taken]
    assert sorted(id(c) for c, _ in skipped) == sorted(id(block) for block in kept)
    for c, rec in skipped:
        assert rec.connection is c and rec.corrections == []
        assert rec.gauge == LaurentMatrix.identity(c.tower, c.size, c.ram)


def test_a_split_block_off_its_semisimple_commutant_is_normalized():
    # lead diag(1, 2) with an off-diagonal coefficient above it: no split
    # hands on such a block, and as a root its normalization takes a step
    c = Connection.from_coeff_map(QQ, {-2: [[1, 0], [0, 2]], -1: [[0, 1], [0, 0]]},
                                  2, prec=2)
    assert not commutes(c, c.leading())
    assert sibuya_normalize(c, jordan_chevalley(c.leading()).semisimple).corrections
    tree = reduce(c)
    assert [leaf.kind for leaf in tree.leaves()] == ["rank_one", "rank_one"]
    assert replay(tree) is True


def test_default_working_precision_covers_stability_window():
    c = checks.sample_ramified_pair()
    wp = default_working_precision(c)
    assert wp >= -c.pole_order + 1
    assert isinstance(wp, int)


def test_reduce_reports_missing_precision_honestly():
    with pytest.raises(PrecisionExhausted) as info:
        reduce(checks.sample_saddle_node().truncate(0))
    assert info.value.needed is not None
    with pytest.raises(PrecisionExhausted) as info:
        reduce(checks.sample_saddle_node().truncate(-1))
    assert "slope" in str(info.value) or "window" in str(info.value)


# ---------------------------------------------------------------------------
# stability constants
# ---------------------------------------------------------------------------


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, cap), 0, -1):
        out.extend((k,) + rest for rest in _partitions(n - k, k))
    return out


def _oracle_constant(n, r):
    """Brute-force evaluation of the tail-bound recursion, written from the
    inequalities directly: the minimal admissible value takes equality in
    every condition, quantifiers range over orbit dimensions realized by
    nilpotent matrices (one partition per Jordan type), and the grading
    degree attached to a dimension is the largest weight spread among its
    partitions."""
    spread_by_dim = {}

    def realized(size):
        table = {}
        for shape in _partitions(size):
            width = shape[0]
            transpose = [sum(1 for m in shape if m > j) for j in range(width)]
            dim = size * size - sum(x * x for x in transpose)
            table[dim] = max(table.get(dim, 0), 2 * (width - 1))
        return table

    memo = {}

    def full(size, pole):
        if size == 1 or pole <= 1:
            return 0
        return max(graded(size, pole, d) for d in realized(size))

    def graded(size, pole, delta):
        key = (size, pole, delta)
        if key in memo:
            return memo[key]
        if size == 1 or pole <= 1:
            return 0
        table = realized(size)
        j = table[delta]
        half = Fraction(pole - 1, 2)
        deeper_pole = (j + 2) * (pole - 1) + 1
        bound = max(Fraction(-1) + j * half, Fraction(0))
        for smaller in range(1, size):
            bound = max(bound, (j + 2) * j * half + full(smaller, deeper_pole))
        for other in table:
            if other > delta:
                bound = max(bound, (j + 2) * j * half
                            + graded(size, deeper_pole, other))
        memo[key] = bound
        return bound

    value = full(n, r)
    assert value == int(value)
    return int(value)


def test_stability_base_cases():
    for r in range(1, 11):
        assert stability_constant(1, r) == 0
    for n in range(1, 5):
        assert stability_constant(n, 1) == 0


def test_stability_matches_independent_recursion():
    assert stability_constant(2, 2) == _oracle_constant(2, 2) == 8
    assert stability_constant(2, 3) == _oracle_constant(2, 3)
    assert stability_constant(3, 2) == _oracle_constant(3, 2)


def test_known_sharp_table():
    assert KNOWN_SHARP[(2, 2)] == 1
    # the recursion is deliberately cruder than the sharp value
    assert stability_constant(2, 2) >= KNOWN_SHARP[(2, 2)]


def test_stability_rejects_bad_arguments():
    from mcred.errors import DomainViolation
    with pytest.raises(DomainViolation):
        stability_constant(0, 2)
    with pytest.raises(DomainViolation):
        stability_constant(2, -1)
    assert stability_constant(2, 0) == 0   # no pole, nothing to stabilize


def test_tail_perturbation_preserves_leaf_structure():
    failures = checks.suite_tail_stability(seed=2, trials=2)
    assert failures == []


# ---------------------------------------------------------------------------
# exact inputs after a monomial gauge
# ---------------------------------------------------------------------------


def _gauge_sweep(seed, draws):
    """``(c, c gauged by a monomial)`` per draw of a gauge sweep: each draw
    picks ``n``, ``r`` and a kind, then a unit gauge (drawn but not applied
    here) and a monomial one, from one generator per seed."""
    rng = random.Random(seed)
    for _ in range(draws):
        n, r, kind = rng.choice([2, 3]), rng.choice([1, 2, 3]), rng.choice(checks.KINDS)
        c = checks.random_connection(rng, n, r, kind=kind)
        checks.random_unit_gauge(rng, n)
        yield c, c.gauge(checks.random_monomial_gauge(rng, n))


def _slopes(leaves):
    """The multiset of (rank one, slope ``max(pole - 1, 0) / ram``, size)
    over leaves given as ``(kind, pole, ram, size)``; a gauge keeps it."""
    return sorted((kind == "rank_one", Fraction(max(pole - 1, 0), ram), size)
                  for kind, pole, ram, size in leaves)


def _tree_leaves(tree):
    return [(leaf.kind, leaf.pole, leaf.ram, leaf.size) for leaf in tree.leaves()]


def _encoded_leaves(node):
    if "children" not in node:
        return [(node["kind"], node["pole"], node["ramification"], node["size"])]
    return [leaf for child in node["children"] for leaf in _encoded_leaves(child)]


# (seed, draw, sha256 prefix of the gauged file): exact files of 1.2-3.2 KB.
# In the first three the entries are known to different orders once the
# working precision truncates them; the slope scan read a coefficient at or
# past the least of those orders and exited 2 with a hint that moved with
# every window.  In the last (rank 2, pole 3) the shear at slope 1/2 leaves a
# regular nilpotent lead again once the twist removes the identity, so only
# the Katz slope drops (from 2 to 1); it exited 1 while the measure had no
# slope component
GAUGED_EXACT = [(11, 0, "97f0576f"), (11, 1, "5b8cf9ec"), (5, 12, "71d3071b"),
                (5, 3, "33be7e56")]


@pytest.mark.parametrize("seed, draw, digest", GAUGED_EXACT)
def test_monomial_gauged_exact_files_reduce_in_a_subprocess(tmp_path, seed, draw, digest):
    c, gauged = list(_gauge_sweep(seed, draw + 1))[-1]
    text = serialize.dumps(serialize.encode_connection(gauged))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)
    path = tmp_path / "gauged.json"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(mcred.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "mcred", "reduce", str(path)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    got = _slopes(_encoded_leaves(serialize.loads(done.stdout)["root"]))
    assert got == _slopes(_tree_leaves(reduce(c)))
    assert replay(reduce(gauged))


@pytest.mark.parametrize("seed, draw, digest", GAUGED_EXACT)
def test_monomial_gauged_exact_files_reduce_at_every_window(seed, draw, digest):
    # the hint once tracked the window: one below it at every precision
    c, gauged = list(_gauge_sweep(seed, draw + 1))[-1]
    want = _slopes(_tree_leaves(reduce(c)))
    for p in (14, 30):
        assert _slopes(_tree_leaves(reduce(gauged.truncate(p)))) == want


def test_the_slope_scan_reads_no_coefficient_past_the_window():
    # entry (0, 1) is known below 3, the others below 6: the coefficient of
    # entry (0, 0) at 4 is no slope candidate, the tail bound covers it
    g = LaurentMatrix(QQ, [[LaurentSeries(QQ, {4: 7}, 6), LaurentSeries(QQ, {-2: 1}, 3)],
                           [LaurentSeries(QQ, {}, 6), LaurentSeries(QQ, {1: 5}, 6)]])
    c = Connection(g)
    assert (c.prec, c.pole_order, g.support()) == (3, 2, [-2, 1, 4])
    data = compute_alpha(c, [1, -1])
    assert (data.alpha, data.critical, data.tail_min) == (Fraction(3, 2), [(1, 0)],
                                                          Fraction(5, 4))


@pytest.mark.xfail(strict=True, reason="a hint is the precision that the node which "
                   "raised needs, in its own variable and after its own gauges, not "
                   "the precision of the input")
def test_a_precision_hint_exceeds_the_window_and_moves_the_failure_on():
    # on truncated inputs that exit 2, the hint must exceed the window given,
    # and a rerun at the hint must not fail with the same message
    failures = []
    for seed in (5, 11):
        for k, pair in enumerate(_gauge_sweep(seed, 20)):
            for c in pair:
                if c.size == 1 or c.pole_order <= 1:
                    continue
                for p in sorted({c.valuation + 1, c.valuation + 3, 0, 2, 6}):
                    try:
                        reduce(c.truncate(p))
                    except PrecisionExhausted as exc:
                        if exc.needed is None:
                            continue
                        if exc.needed <= p:
                            failures.append((seed, k, p, exc.needed, str(exc)))
                            continue
                        try:
                            reduce(c.truncate(exc.needed))
                        except PrecisionExhausted as again:
                            if str(again) == str(exc):
                                failures.append((seed, k, p, exc.needed, str(exc)))
                        except EngineError:
                            pass
                    except EngineError:
                        pass
    assert failures == []


# ---------------------------------------------------------------------------
# blocks known to different orders
# ---------------------------------------------------------------------------


def test_every_short_window_of_the_gauge_sweep_reduces_and_replays_or_asks_for_more():
    # the windows of the precision-hint xfail, plus 1.  That test catches
    # EngineError, so it passed over NotBlockDiagonal on two gauged draws
    # (seed 5 draw 11 at 1, seed 11 draw 18 at 0), whose sheared blocks
    # carry an off-diagonal coefficient past the common window.  166 of the
    # 305 windows reduce; the others raise PrecisionExhausted
    cases = reduced = 0
    for seed in (5, 11):
        for pair in _gauge_sweep(seed, 20):
            for c in pair:
                if c.size == 1 or c.pole_order <= 1:
                    continue
                for p in sorted({c.valuation + 1, c.valuation + 3, 0, 1, 2, 6}):
                    cases += 1
                    try:
                        tree = reduce(c.truncate(p))
                    except PrecisionExhausted:
                        continue
                    assert replay(tree), (seed, p)
                    reduced += 1
    assert (cases, reduced) == (305, 166)


# ---------------------------------------------------------------------------
# the slope scan against the coefficient grids it replaced
# ---------------------------------------------------------------------------


def _oracle_alpha(c, weights):
    """``(alpha, j_max, tail_min, critical)`` from the full coefficient grid
    at each exponent of the window, scanned for its nonzero weight
    components."""
    r, s = -c.valuation, c.prec
    n = len(weights)
    alpha, pairs = None, []
    for i in c.matrix.support():
        if i <= -r or i >= s:
            continue
        grid = c.coeff(i)
        for j in sorted({weights[a] - weights[b] for a in range(n) for b in range(n)
                         if not grid[a][b].is_zero()}):
            if j + 2 <= 0:
                continue
            cand = Fraction(i + r, j + 2)
            pairs.append((cand, i, j))
            if alpha is None or cand < alpha:
                alpha = cand
    j_max = max(weights) - min(weights)
    return (alpha, j_max, Fraction(s + r, j_max + 2),
            [(i, j) for cand, i, j in pairs if cand == alpha])


def _oracle_prediction(c, weights, f_std, critical):
    """The lead plus the masked weight-``j`` grid of each critical ``(i, j)``."""
    n = len(weights)
    acc = [row[:] for row in f_std]
    for i, j in critical:
        grid = c.coeff(i)
        zero = common_context(grid).zero()
        acc = linalg.mat_add(acc, [[grid[a][b] if weights[a] - weights[b] == j else zero
                                    for b in range(n)] for a in range(n)])
    return acc


def _sqrt2_nilpotent_lead():
    """Rank 2 over Q(sqrt 2): lead ``[[0, 1], [0, 0]]`` at ``u**-3`` and
    ``[[0, 0], [sqrt 2, 0]]`` at ``u**-1``."""
    k = QQ.extend([-2, 0, 1])
    zero = LaurentSeries(k, {})
    return Connection(LaurentMatrix(k, [[zero, LaurentSeries(k, {-3: 1})],
                                        [LaurentSeries(k, {-1: k.gen()}), zero]]))


def test_the_slope_is_read_off_the_entries_as_the_grids_read_it(monkeypatch):
    """Every slope scan and prediction of ``reduce`` on the P48 file at 24,
    the seed-1 rank-5 nilpotent-lead file, the 40 draws of the gauge sweep
    and a file over Q(sqrt 2) agrees with the grids: over Q 13 scans run at
    ramification above 1, 14 on entries known to different orders and 31
    find more than one critical pair."""
    calls = []
    compute, predict = reduction.compute_alpha, reduction.slodowy_prediction

    def spy_alpha(c, weights):
        data = compute(c, weights)
        assert (data.alpha, data.j_max, data.tail_min, data.critical) == _oracle_alpha(c, weights)
        calls.append((c, data))
        return data

    predictions = []

    def spy_prediction(c, weights, f_std, data):
        got = predict(c, weights, f_std, data)
        assert linalg.mat_eq(got, _oracle_prediction(c, weights, f_std, data.critical))
        predictions.append(c)
        return got

    monkeypatch.setattr(reduction, "compute_alpha", spy_alpha)
    monkeypatch.setattr(reduction, "slodowy_prediction", spy_prediction)
    inputs = [checks.random_connection(random.Random(3), 3, 3, kind="nilpotent_lead",
                                       prec=48).truncate(24),
              checks.random_connection(random.Random(1), 5, 2, kind="nilpotent_lead")]
    inputs += [c for seed in (5, 11) for pair in _gauge_sweep(seed, 20) for c in pair]
    for c in inputs:
        try:
            reduce(c)
        except PrecisionExhausted:
            pass
    varied = [len({x.prec for row in c.matrix.entries for x in row}) > 1 for c, _ in calls]
    assert (len(calls), sum(c.ram > 1 for c, _ in calls), sum(varied),
            sum(len(data.critical) > 1 for _, data in calls)) == (60, 13, 14, 31)
    assert {c.tower.depth for c, _ in calls} == {0} and len(predictions) == 40
    reduce(_sqrt2_nilpotent_lead())
    assert (len(calls), calls[-1][0].tower.depth, len(predictions)) == (61, 1, 41)
