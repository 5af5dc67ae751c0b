"""A field certificate for every level of the leaf towers ``reduce`` builds.

The engine adjoins roots of polynomials it takes on trust (dynamic
evaluation, :mod:`mcred.field`), so a leaf's tower may be a ring that is not
a field.  This test certifies the levels over Q.  Levels 1..j of a tower span
an algebra ``A`` of dimension ``d = deg_1 * ... * deg_j`` over Q, with the
reduced coordinates as basis.  If multiplication by some ``a`` in ``A`` has
an irreducible characteristic polynomial, then that polynomial is also the
minimal polynomial of ``a``.  So ``Q[a]`` has dimension ``d``, and
``A = Q[a]`` is a field.  In a ring that is not a field, every element's
characteristic polynomial factors (over a product it is the product of the
factors' polynomials; over a local ring it is a power), so no element
certifies one.

The inputs are the 24 seed-1 ``reduce-replay`` benchmark inputs, the five
named samples, and the rank-4, pole-2 draws of seeds 1-3 of each kind.
For each distinct leaf tower and each level ``j``, a few seeded
small-integer elements of levels 1..j are tried.  ``UNCERTIFIED`` pins the
levels that none of them certifies, so a new non-field fails this test.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from mcred import checks, reduce  # noqa: E402
from mcred.checks import KINDS  # noqa: E402
from mcred.field import _mul  # noqa: E402

TRIES = 3

# (input, degrees of the leaf tower, level).  The seed-1 rank-4
# nilpotent-lead tree adjoins a root of x^4 + 2^14 = (x^2 + 16x + 128)(x^2 -
# 16x + 128) at level 1 of both its leaf towers; the deeper one then adjoins
# a root of y^2 + x^2, which splits since x^2 / 128 squares to -1.
UNCERTIFIED = [
    ("rank4-nilpotent_lead-1", (4,), 1),
    ("rank4-nilpotent_lead-1", (4, 2), 1),
    ("rank4-nilpotent_lead-1", (4, 2), 2),
]


def _inputs():
    rng = random.Random(1)  # the reduce-replay inputs, drawn in order
    for i in range(24):
        yield f"reduce-replay-{i}", checks.random_connection(
            rng, 2 + i % 2, 2 + (i // 2) % 2, kind=KINDS[i % 3])
    for name, make in checks.SAMPLES.items():
        yield name, make()
    for kind in KINDS:
        for seed in (1, 2, 3):
            yield f"rank4-{kind}-{seed}", checks.random_connection(
                random.Random(seed), 4, 2, kind=kind)


def _basis(tower, j):
    """The positions of the reduced coordinates of levels 1..j."""
    positions = [0]
    for level in range(1, j + 1):
        step = tower.sizes[level - 1]
        positions = [p + i * step for i in range(tower.degree(level)) for p in positions]
    return sorted(positions)


def _certified(tower, j):
    """Whether some seeded element of levels 1..j has an irreducible
    characteristic polynomial over Q."""
    basis = _basis(tower, j)
    index = {p: k for k, p in enumerate(basis)}
    rng = random.Random(j)
    for _ in range(TRIES):
        a = (1, tuple((p, n) for p in basis for n in [rng.randint(-3, 3)] if n))
        rows = [[sympy.QQ(0)] * len(basis) for _ in basis]
        for k, p in enumerate(basis):
            den, terms = _mul(tower, a, (1, ((p, 1),)))
            for q, n in terms:
                rows[index[q]][k] = sympy.QQ(n, den)
        chi = DomainMatrix(rows, (len(basis), len(basis)), sympy.QQ).charpoly()
        _, factors = sympy.Poly(chi, sympy.Symbol("t"), domain=sympy.QQ).factor_list()
        if len(factors) == 1 and factors[0][1] == 1:
            return True
    return False


def test_every_leaf_tower_level_is_a_certified_field_but_the_pinned_ones():
    towers = {}
    for name, c in _inputs():
        for leaf in reduce(c).leaves():
            towers.setdefault(leaf.leaf.tower, name)
    uncertified = [
        (name, tuple(tower.degree(k) for k in range(1, tower.depth + 1)), j)
        for tower, name in towers.items()
        for j in range(1, tower.depth + 1) if not _certified(tower, j)]
    assert sorted(uncertified) == UNCERTIFIED
