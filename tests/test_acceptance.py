"""End-to-end acceptance checks, one test per headline claim.

Everything here is exact arithmetic: assertions are equalities, never
tolerances.  Each test prints one PASS line (run with ``-v`` or ``-s`` to
see them) so a log shows one verdict per claim.
"""

import random
from fractions import Fraction

import pytest

from mcred import checks
from mcred.cohomology import derham_dims, ramified_decomposition_check
from mcred.connection import Connection
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.reduction import (
    KNOWN_SHARP,
    compute_alpha,
    reduce,
    replay,
    shear,
    slodowy_prediction,
    stability_constant,
)
from mcred.series import LaurentSeries
from mcred.sl2 import jacobson_morozov

from test_reduction import _oracle_constant

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def conn(entries):
    return Connection(LaurentMatrix(QQ, entries))


def _dims(c):
    d = derham_dims(c)
    return d.h0, d.h1


def _leaves(node):
    if not node.children:
        return [node]
    out = []
    for ch in node.children:
        out.extend(_leaves(ch))
    return out


def _has_monomial_diag_gauge(node, exps, ram):
    for kind, g in node.ops:
        if kind != "gauge" or g.ram != ram:
            continue
        if all(g.entry(k, k).support() == [e] for k, e in enumerate(exps)) \
                and all(g.entry(i, j).is_zero()
                        for i in range(g.size) for j in range(g.size) if i != j):
            return True
    return False


def test_criterion_01_gauge_goldens_and_derham_distinguishes():
    nilpotent_model = conn([[S({}), S({-1: 1})], [S({}), S({})]])
    for n in (1, 2, 3):
        cascade = checks.sample_exponential_cascade(n)
        g = LaurentMatrix.monomial_diagonal(QQ, [-n, 0])
        assert cascade.gauge(g).matrix.coincides_with(nilpotent_model.matrix)
        diagonal_only = conn([[S({-1: -n}), S({})], [S({}), S({})]])
        assert diagonal_only.gauge(g).matrix.is_zero()
    assert _dims(nilpotent_model) == (1, 1)
    assert _dims(conn([[S({}), S({})], [S({}), S({})]])) == (2, 2)
    print("PASS 1: gauge goldens; derham separates (1,1) from (2,2)")


def test_criterion_02_zero_cocycle_golden():
    for ell in (0, 1, 2, 3):
        c = conn([[S({}), S({-2: 1})], [S({0: ell * (ell + 1)}), S({})]])
        v = LaurentMatrix(QQ, [[S({ell: 1})], [S({ell + 1: -ell})]])
        assert c.apply_nabla(v).is_zero()
    print("PASS 2: (t^l, -l t^{l+1}) is a 0-cocycle for l = 0, 1, 2, 3")


def test_criterion_03_worked_reductions():
    # b = 0: one regular-singular leaf over u = t^{1/2}, residue
    # [[a + 1/2, e], [1, d - 1/2]] at (a, d, e) = (0, 0, 1)
    tree = reduce(checks.sample_saddle_node())
    root = tree.root
    assert root.kind == "regular_singular" and root.leaf is not None
    assert root.ram == 2
    assert [[x.to_fraction() for x in row] for row in root.residue] == [
        [Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(-1, 2)]]
    assert ("ramify", 2) in root.ops
    assert _has_monomial_diag_gauge(root, [-1, 1], 2)   # diag(t^∓1/2)

    # b = 1: shear exponent 1/4, semisimple lead [[0, 1], [1, 0]],
    # two rank-one leaves
    c = checks.sample_ramified_pair()
    tree = reduce(c)
    root = tree.root
    assert root.kind == "descend"
    assert root.alpha == Fraction(1, 4)
    assert ("ramify", 4) in root.ops
    assert _has_monomial_diag_gauge(root, [-1, 1], 4)   # diag(t^∓1/4)
    work = c.truncate(6)
    triple = jacobson_morozov(work.leading())
    sd = compute_alpha(work, triple.weights)
    assert sd.alpha == Fraction(1, 4)
    sheared, b, _ = shear(work, triple.weights, -sd.alpha)
    lead = sheared.leading()
    semisimple = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    for i in range(2):
        for j in range(2):
            assert (lead[i][j] - QQ.rational(semisimple[i][j] * b)).is_zero()
    assert slodowy_prediction(work, triple.weights, triple.f, sd) is not None
    leaves = _leaves(root)
    assert [leaf.kind for leaf in leaves] == ["rank_one", "rank_one"]
    print("PASS 3: worked reductions match, including recorded shear gauges")


def test_criterion_04_fredholm_criteria():
    rng = random.Random(0)
    for _ in range(50):
        c = checks.random_connection(rng, rng.randint(1, 3), rng.randint(2, 3),
                                     kind="invertible_lead")
        assert _dims(c) == (0, 0)
    assert _dims(conn([[S({-1: Fraction(1, 2)})]])) == (0, 0)
    for ell in (-1, 0, 2):
        assert _dims(conn([[S({-1: ell})]])) == (1, 1)
    print("PASS 4: invertible leads are acyclic (50/50); residue criteria hold")


def test_criterion_05_lambda_family_dichotomy():
    assert _dims(conn([[S({-1: Fraction(1, 2)})]])) == (0, 0)
    assert _dims(conn([[S({-1: 1})]])) == (1, 1)
    print("PASS 5: lambda-family dichotomy at 1/2 vs 1")


def test_criterion_06_euler_bound_sweep():
    failures = checks.suite_euler_bound(seed=0, trials=200)
    assert failures == []
    print("PASS 6: |chi| <= (2r+1)n, h0 <= n and h0 == h1 on 200 random instances")


def test_criterion_07_stability_constants():
    for r in range(1, 11):
        assert stability_constant(1, r) == 0
    for n in range(1, 5):
        assert stability_constant(n, 1) == 0
    assert stability_constant(2, 2) == _oracle_constant(2, 2)
    assert KNOWN_SHARP[(2, 2)] == 1

    rng = random.Random(0)
    cut = -2 + stability_constant(2, 2)
    for k in range(50):
        c = checks.random_connection(rng, 2, 2, kind=checks.KINDS[k % 4], top=0)
        bump = {e: checks.random_grid(rng, 2) for e in range(cut, cut + 2)}
        perturbed = Connection(c.matrix + LaurentMatrix.from_coeff_map(
            c.tower, bump, 2))
        assert derham_dims(c).chi == derham_dims(perturbed).chi
    print("PASS 7: stability base cases, oracle equality, chi tail-invariance")


def test_criterion_08_cbh_dlog_suite():
    failures = checks.suite_exp_log(seed=0, trials=50)
    assert failures == []
    print("PASS 8: CBH/dlog valuation inequalities on 50 random instances")


def test_criterion_09_certificate_replay_and_measure():
    rng = random.Random(1)
    edges = 0
    for k in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(0, 3)
        c = checks.random_connection(rng, n, r, kind=checks.KINDS[k % 4])
        tree = reduce(c)
        assert replay(tree, c), f"replay failed on instance {k}"
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for ch in node.children:
                if node.measure is not None and ch.measure is not None:
                    assert ch.measure < node.measure
                    edges += 1
                stack.append(ch)
    assert edges > 0
    print("PASS 9: 100/100 certificates replay; measure decreases on edges")


def test_criterion_10_ramified_decomposition():
    for theta in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        for d in (2, 3):
            assert ramified_decomposition_check(
                checks.sample_residue_line(theta), d)
    print("PASS 10: ramified decomposition for residues 0, 1/2, 1/3; d = 2, 3")
