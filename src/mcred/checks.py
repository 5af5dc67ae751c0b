"""Seeded generators, named samples, and randomized property suites.

Everything here is deterministic for a fixed seed.  Each suite returns a
list of human-readable failure strings (empty means the property held on
every trial); :func:`run_all` drives the lot and the ``check`` subcommand
turns a nonempty result into a nonzero exit code.

Design choice for the random gauges: instead of generic invertible series
(whose exact inverses never terminate), the unit gauges are built as
``L * U`` with unipotent triangular factors, so the determinant is exactly 1
and every inverse is again an exact polynomial matrix.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .cohomology import (
    derham_dims,
    euler_bound_check,
    ramified_decomposition_check,
)
from .connection import Connection
from .errors import EngineError, PrecisionExhausted, Unstabilized
from .field import FieldTower
from .matrices import LaurentMatrix
from .reduction import reduce, stability_constant
from .serialize import encode_element
from .series import INF, LaurentSeries

QQ = FieldTower()


# ---------------------------------------------------------------------------
# random ingredients
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def random_grid(rng: random.Random, n: int) -> list:
    return [[random_rational(rng) for _ in range(n)] for _ in range(n)]


def _nonzero_grid(rng: random.Random, n: int) -> list:
    while True:
        g = random_grid(rng, n)
        if any(x != 0 for row in g for x in row):
            return g


def _invertible_grid(rng: random.Random, n: int) -> list:
    while True:
        g = random_grid(rng, n)
        elems = [[QQ.rational(x) for x in row] for row in g]
        if linalg.rank(elems) == n:
            return g


def _nilpotent_grid(rng: random.Random, n: int) -> list:
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = random_rational(rng)
    if all(x == 0 for row in g for x in row):
        g[0][n - 1] = Fraction(1)  # callers guarantee n >= 2 here
    return g


KINDS = ("generic", "invertible_lead", "nilpotent_lead", "regular_singular")


def random_connection(rng: random.Random, n: int, r: int, *,
                      kind: str = "generic", top: int = 1,
                      prec=INF) -> Connection:
    """A random size-``n`` connection with pole order exactly ``r``.

    Coefficients run over exponents ``-r .. top``; with the default
    ``prec=INF`` the result is an exact polynomial connection (no window
    bookkeeping in the consuming test).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; pick one of {KINDS}")
    if kind == "nilpotent_lead" and n == 1:
        kind = "regular_singular"  # the only 1x1 nilpotent is 0: no such lead
    if kind == "regular_singular":
        r = min(r, 1)
    coeff_map = {e: random_grid(rng, n) for e in range(-r + 1, top + 1)}
    if r > 0:
        if kind == "invertible_lead":
            coeff_map[-r] = _invertible_grid(rng, n)
        elif kind == "nilpotent_lead":
            coeff_map[-r] = _nilpotent_grid(rng, n)
        else:
            coeff_map[-r] = _nonzero_grid(rng, n)
    return Connection.from_coeff_map(QQ, coeff_map, n, prec=prec)


def random_unit_gauge(rng: random.Random, n: int) -> LaurentMatrix:
    """Exact polynomial gauge with determinant 1 (unipotent ``L * U``)."""

    def triangular(lower: bool) -> LaurentMatrix:
        one = LaurentSeries.one(QQ)
        zero = LaurentSeries.zero(QQ)
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (i > j) if lower else (i < j):
                    coeffs = {e: random_rational(rng)
                              for e in range(3) if rng.random() < 0.7}
                    rows[i][j] = LaurentSeries(QQ, coeffs)
        return LaurentMatrix(QQ, rows)

    return triangular(True) * triangular(False)


def random_monomial_gauge(rng: random.Random, n: int) -> LaurentMatrix:
    exps = [rng.randint(-2, 2) for _ in range(n)]
    return LaurentMatrix.monomial_diagonal(QQ, exps)


# ---------------------------------------------------------------------------
# named samples
# ---------------------------------------------------------------------------


def sample_saddle_node() -> Connection:
    """Pole order 2 with nilpotent lead; reduces to one regular-singular
    leaf with residue eigenvalues ``+-1/2``."""
    return Connection.from_coeff_map(
        QQ, {-2: [[0, 0], [1, 0]], 0: [[0, 1], [0, 0]]}, 2)


def sample_ramified_pair() -> Connection:
    """Pole order 2 with nilpotent lead and slope 1/4: reduction needs a
    degree-4 ramification and splits into two rank-one leaves."""
    return Connection.from_coeff_map(
        QQ, {-2: [[0, 0], [1, 0]], -1: [[0, 1], [0, 0]]}, 2)


def sample_jump_family(lam) -> Connection:
    """``[[0, 1], [0, 0]] u^-2 + [[0, 0], [lam(lam+1), 0]]``: solvable in
    formal series exactly when ``lam`` is an integer."""
    lam = Fraction(lam)
    return Connection.from_coeff_map(
        QQ, {-2: [[0, 1], [0, 0]], 0: [[0, 0], [lam * (lam + 1), 0]]}, 2)


def sample_residue_line(theta) -> Connection:
    """Rank one, ``theta * du/u``."""
    return Connection.from_coeff_map(QQ, {-1: [[Fraction(theta)]]}, 1)


def sample_exponential_cascade(n: int) -> Connection:
    """``[[-n/u, u^(n-1)], [0, 0]]``: gauge by ``diag(u^-n, 1)`` flattens it
    to ``[[0, u^-1], [0, 0]]`` however large ``n`` is."""
    return Connection.from_coeff_map(
        QQ, {-1: [[-n, 0], [0, 0]], n - 1: [[0, 1], [0, 0]]}, 2)


SAMPLES = {
    "saddle-node": sample_saddle_node,
    "ramified-pair": sample_ramified_pair,
    "jump-integer": lambda: sample_jump_family(1),
    "jump-half": lambda: sample_jump_family(Fraction(1, 2)),
    "half-residue": lambda: sample_residue_line(Fraction(1, 2)),
}


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def suite_gauge_law(seed: int = 0, trials: int = 100) -> list:
    """``gauge_(g h) = gauge_g . gauge_h`` and gauges invert cleanly."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 3)
        c = random_connection(rng, n, rng.randint(0, 2))
        g = random_unit_gauge(rng, n)
        h = random_unit_gauge(rng, n)
        if c.gauge(h).gauge(g) != c.gauge(g * h):
            failures.append(f"trial {k}: gauge composition law failed")
        if c.gauge(g).gauge(g.inverse()) != c:
            failures.append(f"trial {k}: gauge by g then g^-1 moved the point")
    return failures


def suite_leibniz(seed: int = 0, trials: int = 50) -> list:
    """``nabla(f v) = f' v + f nabla(v)`` for scalar series ``f``."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 3)
        c = random_connection(rng, n, rng.randint(0, 2))
        v = LaurentMatrix(
            QQ,
            [[LaurentSeries(QQ,
                            {e: random_rational(rng)
                             for e in range(-1, 3) if rng.random() < 0.7},
                            INF)] for _ in range(n)],
        )
        f = LaurentSeries(QQ, {rng.randint(-2, 2): random_rational(rng),
                               rng.randint(3, 5): random_rational(rng)}, INF)
        f_mat = LaurentMatrix.diagonal(QQ, [f] * n)
        df_mat = LaurentMatrix.diagonal(QQ, [f.derivative()] * n)
        left = c.apply_nabla(f_mat * v)
        right = df_mat * v + f_mat * c.apply_nabla(v)
        if left != right:
            failures.append(f"trial {k}: Leibniz rule failed")
    return failures


def suite_ramify_compose(seed: int = 0, trials: int = 30) -> list:
    """Pullbacks compose: ``ramify(b1 b2) == ramify(b1) then ramify(b2)``."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 3)
        c = random_connection(rng, n, rng.randint(0, 2))
        b1, b2 = rng.randint(1, 3), rng.randint(1, 3)
        if c.ramify(b1 * b2) != c.ramify(b1).ramify(b2):
            failures.append(f"trial {k}: ramification pullbacks do not compose")
    return failures


def suite_euler_bound(seed: int = 0, trials: int = 200) -> list:
    """Index 0 (``h0 == h1``) and ``0 <= h0 <= n`` on random connections."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 3)
        r = rng.randint(0, 3)
        kind = KINDS[rng.randrange(len(KINDS))]
        c = random_connection(rng, n, r, kind=kind)
        try:
            dims = derham_dims(c)
        except Unstabilized:
            failures.append(f"trial {k}: window doubling never stabilized")
            continue
        if dims.h0 != dims.h1:
            failures.append(f"trial {k}: dims ({dims.h0}, {dims.h1}) have nonzero index")
        elif not euler_bound_check(c, dims):
            failures.append(
                f"trial {k}: dims ({dims.h0}, {dims.h1}) break the bound "
                f"for n={n}, r={r}")
    return failures


def suite_dims_gauge_invariance(seed: int = 0, trials: int = 25) -> list:
    """``(h0, h1)`` is blind to unit gauges and to monomial gauges."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 2)
        c = random_connection(rng, n, rng.randint(0, 2))
        base = derham_dims(c)
        for label, g in (("unit", random_unit_gauge(rng, n)),
                         ("monomial", random_monomial_gauge(rng, n))):
            moved = derham_dims(c.gauge(g))
            if (moved.h0, moved.h1) != (base.h0, base.h1):
                failures.append(
                    f"trial {k}: {label} gauge moved dims "
                    f"({base.h0}, {base.h1}) -> ({moved.h0}, {moved.h1})")
    return failures


def suite_ramified_dims(seed: int = 0, trials: int = 12) -> list:
    """Pullback dimensions match the sum over fractional residue twists."""
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        n = rng.randint(1, 2)
        c = random_connection(rng, n, rng.randint(0, 2))
        d = rng.randint(2, 3)
        if not ramified_decomposition_check(c, d):
            failures.append(f"trial {k}: degree-{d} pullback dims mismatch")
    return failures


# ---------------------------------------------------------------------------
# tail stability
# ---------------------------------------------------------------------------


def _leaf_signature(tree) -> list:
    """Leaf invariants that truncation beyond the stability bound must fix:
    kind, shape data, slope history and the principal parts that survive at
    the leaf (full residue for regular-singular leaves, polar coefficients
    for rank-one ones)."""
    out = []
    for node in tree.leaves():
        principal = None
        if node.kind == "rank_one":
            entry = node.leaf.matrix.entry(0, 0)
            principal = tuple(
                (e, encode_element(x)) for e, x in entry.items() if e < 0)
        residue = None
        if node.residue is not None:
            residue = tuple(tuple(encode_element(x) for x in row)
                            for row in node.residue)
        out.append((node.kind, node.size, node.ram, node.pole,
                    node.alpha, node.shear_base, node.lead_partition,
                    residue, principal))
    return out


def suite_tail_stability(seed: int = 0, trials: int = 8) -> list:
    """Perturbing a pole-order-2, rank-2 connection at exponents past
    ``-r + stability_constant(2, 2)`` changes no leaf invariant."""
    rng = random.Random(seed)
    cut = -2 + stability_constant(2, 2)
    failures = []
    for k in range(trials):
        kind = ("generic", "nilpotent_lead", "invertible_lead")[k % 3]
        c = random_connection(rng, 2, 2, kind=kind, top=2)
        tail = {e: random_grid(rng, 2) for e in range(cut, cut + 3)}
        perturbed = Connection(
            c.matrix + LaurentMatrix.from_coeff_map(QQ, tail, 2))
        try:
            sig = _leaf_signature(reduce(c))
            sig_perturbed = _leaf_signature(reduce(perturbed))
        except (PrecisionExhausted, EngineError) as exc:
            failures.append(f"trial {k}: reduction failed: {exc}")
            continue
        if sig != sig_perturbed:
            failures.append(
                f"trial {k}: a tail at exponents >= {cut} changed the leaves")
    return failures


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


SUITES = {
    "gauge-action": suite_gauge_law,
    "leibniz": suite_leibniz,
    "ramify-compose": suite_ramify_compose,
    "euler-bound": suite_euler_bound,
    "dims-gauge": suite_dims_gauge_invariance,
    "ramified-decomposition": suite_ramified_dims,
    "tail-invariance": suite_tail_stability,
}


def run_all(seed: int = 0, only=None, trials=None) -> dict:
    """Run the requested suites (all by default); name -> failure list.

    ``trials`` overrides each suite's default instance count when given.
    """
    names = list(SUITES) if only is None else list(only)
    results = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        suite = SUITES[name]
        results[name] = suite(seed) if trials is None else suite(seed, trials)
    return results
