import random
from fractions import Fraction

import pytest

from mcred import checks, linalg
from mcred.cohomology import DeRhamDims, LatticeWindow
from mcred.series import INF
from test_matrices import _det


def test_random_connection_kinds_deliver_their_leads():
    rng = random.Random(2)
    for _ in range(10):
        n, r = rng.randint(2, 3), rng.randint(2, 3)
        inv = checks.random_connection(rng, n, r, kind="invertible_lead")
        assert inv.pole_order == r
        assert linalg.rank(inv.leading()) == n
        nil = checks.random_connection(rng, n, r, kind="nilpotent_lead")
        assert nil.pole_order == r
        power = nil.leading()
        for _ in range(n):
            power = linalg.mat_mul(power, nil.leading())
        assert all(x.is_zero() for row in power for x in row)
        rs = checks.random_connection(rng, n, r, kind="regular_singular")
        assert rs.pole_order <= 1


def test_nilpotent_kind_degrades_for_rank_one():
    # there is no nonzero nilpotent 1x1 matrix, so the request collapses
    # to a regular-singular sample instead of lying about the lead
    rng = random.Random(3)
    c = checks.random_connection(rng, 1, 3, kind="nilpotent_lead")
    assert c.pole_order <= 1


def test_random_unit_gauge_has_determinant_one():
    rng = random.Random(4)
    for n in (1, 2, 3):
        g = checks.random_unit_gauge(rng, n)
        det = _det(g.entries)
        assert det.is_monomial() and det.valuation == 0
        assert det.coeff(0).to_fraction() == 1
        assert g.prec is INF


def test_named_samples_shapes():
    assert checks.sample_saddle_node().pole_order == 2
    assert checks.sample_ramified_pair().pole_order == 2
    assert checks.sample_jump_family(Fraction(1, 2)).size == 2
    assert checks.sample_residue_line(Fraction(1, 3)).size == 1
    casc = checks.sample_exponential_cascade(3)
    assert casc.size == 2
    assert casc.matrix.entry(0, 0).coeff(-1).to_fraction() == -3


def test_run_all_rejects_unknown_suite():
    with pytest.raises(ValueError):
        checks.run_all(only=["nope"])


def test_run_all_honors_trial_override():
    results = checks.run_all(seed=6, only=["gauge-action", "leibniz"], trials=3)
    assert set(results) == {"gauge-action", "leibniz"}
    assert all(v == [] for v in results.values())


@pytest.mark.parametrize("name", sorted(checks.SUITES))
def test_every_suite_passes_two_trials(name):
    assert checks.SUITES[name](0, 2) == []


def test_euler_suite_reports_nonzero_index(monkeypatch):
    # the index of d/du on K((u))^n is 0, so h0 != h1 is a failure even
    # when the looser Euler bound holds
    window = LatticeWindow(-1, 1)
    monkeypatch.setattr(checks, "derham_dims",
                        lambda c: DeRhamDims(1, 0, window, "window"))
    failures = checks.suite_euler_bound(seed=0, trials=2)
    assert len(failures) == 2
    assert all("nonzero index" in f for f in failures)
