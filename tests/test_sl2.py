import random
from fractions import Fraction

import pytest

from mcred import linalg
from mcred.errors import NoSuchOrbit, NotNilpotent
from mcred.field import FieldTower
from mcred.sl2 import (
    chain_basis_triple,
    jacobson_morozov,
    jordan_chains,
    max_spread_for_dim,
    orbit_dim,
    partitions,
    realized_orbit_dims,
    transpose_partition,
    weight_spread,
)
from test_matrices import _mat_mul

QQ = FieldTower()
K = QQ.extend([-2, 0, 1])  # sqrt 2


def grid(rows):
    return [[QQ.coerce(x) for x in row] for row in rows]


def _bracket(a, b):
    ab, ba = _mat_mul(a, b), _mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def _equal(a, b):
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _scale(a, k):
    return [[x * QQ.coerce(k) for x in row] for row in a]


JORDAN_F = grid([[0, 0, 0], [1, 0, 0], [0, 1, 0]])       # full chain, n = 3
HOOK_F = grid([[0, 0, 0], [1, 0, 0], [0, 0, 0]])          # partition (2, 1)


def test_nilpotency_order():
    # the longest Jordan chain, which comes first, is as long as the order
    assert len(jordan_chains(JORDAN_F)[0]) == 3
    assert len(jordan_chains(HOOK_F)[0]) == 2
    assert len(jordan_chains(grid([[0, 0], [0, 0]]))[0]) == 1
    with pytest.raises(NotNilpotent):
        jordan_chains(grid([[1, 0], [0, 0]]))


def test_partitions():
    assert sorted(jacobson_morozov(JORDAN_F).block_sizes, reverse=True) == [3]
    assert sorted(jacobson_morozov(HOOK_F).block_sizes, reverse=True) == [2, 1]
    assert transpose_partition((3,)) == (1, 1, 1)
    assert transpose_partition((2, 1)) == (2, 1)
    assert transpose_partition((2, 2, 1)) == (3, 2)


def test_jordan_chains_shape():
    chains = jordan_chains(JORDAN_F)
    assert [len(ch) for ch in chains] == [3]
    chains = jordan_chains(HOOK_F)
    assert sorted(len(ch) for ch in chains) == [1, 2]


def test_jacobson_morozov_relations():
    for f in (JORDAN_F, HOOK_F):
        tr = jacobson_morozov(f)
        p, p_inv = tr.basis, tr.basis_inv
        assert _equal(_mat_mul(p, p_inv), grid([[int(i == j) for j in range(3)]
                                                for i in range(3)]))
        assert _equal(_mat_mul(p_inv, _mat_mul(f, p)), tr.f)
        # the triple in the original basis, through the original f
        h_std = grid([[w if i == j else 0 for j, _ in enumerate(tr.weights)]
                      for i, w in enumerate(tr.weights)])
        e = _mat_mul(p, _mat_mul(tr.e, p_inv))
        h = _mat_mul(p, _mat_mul(h_std, p_inv))
        assert _equal(_bracket(h, e), _scale(e, 2))
        assert _equal(_bracket(h, f), _scale(f, -2))
        assert _equal(_bracket(e, f), h)


def test_jacobson_morozov_weights_match_partition():
    tr = jacobson_morozov(JORDAN_F)
    assert sorted(tr.weights) == [-2, 0, 2]
    tr = jacobson_morozov(HOOK_F)
    assert sorted(tr.weights) == [-1, 0, 1]


def test_orbit_dimension_formula():
    # dim O = n^2 - sum of squared transpose parts
    assert orbit_dim((3,), 3) == 9 - 3
    assert orbit_dim((2, 1), 3) == 9 - 5
    assert orbit_dim((1, 1, 1), 3) == 0
    assert orbit_dim((2, 2), 4) == 16 - 8


@pytest.mark.parametrize("tower", [QQ, K])
def test_orbit_dim_of_the_jordan_type_is_the_rank_of_ad(tower):
    # the reduction measures a nilpotent lead by orbit_dim of its Jordan
    # type instead of eliminating ad(lead), an n^2 x n^2 matrix
    rng = random.Random(7)
    root = tower.gen() if tower.depth else tower.zero()
    for n in range(1, 5):
        for shape in partitions(n):
            while True:
                p = [[tower.rational(rng.randint(-3, 3)) + root * rng.randint(-2, 2)
                      for _ in range(n)] for _ in range(n)]
                if linalg.rank(p) == n:
                    break
            f = _mat_mul(_mat_mul(p, chain_basis_triple(tower, shape)[1]), linalg.inverse(p))
            assert tuple(jacobson_morozov(f).block_sizes) == shape
            assert orbit_dim(shape, n) == linalg.rank(linalg.ad_matrix(f))


def test_realized_orbit_dims():
    assert realized_orbit_dims(2) == [0, 2]
    assert realized_orbit_dims(3) == [0, 4, 6]
    assert 0 in realized_orbit_dims(4)


def test_weight_spread_and_max_spread():
    assert weight_spread((3,)) == 4          # weights -2..2
    assert weight_spread((2, 1)) == 2        # weights -1..1
    assert weight_spread((1, 1)) == 0
    # the largest spread over all partitions with orbit dim <= delta
    assert max_spread_for_dim(2, 2) == 2
    assert max_spread_for_dim(3, 4) == 2
    assert max_spread_for_dim(3, 6) == 4


def test_max_spread_refuses_a_dimension_no_orbit_has():
    with pytest.raises(NoSuchOrbit, match="no nilpotent orbit of dimension 5 in gl_3"):
        max_spread_for_dim(3, 5)
