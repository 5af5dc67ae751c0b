"""sl2 structure adapted to a nilpotent matrix.

Jordan chains are extracted greedily from the kernel filtration of the
nilpotent matrix ``f`` (longest chains first, deterministically).  The chain
basis carries the standard triple: ``f`` acts as the lowering operator, ``h``
as the integer weight grading, and ``e`` as the raising operator with
``e . f^i v = i (k - i) f^(i-1) v`` on a chain of length ``k``.  Conjugating
back gives an honest triple ``[e, f] = h``, ``[h, e] = 2e``, ``[h, f] = -2f``
through the original ``f`` (the zero matrix gets the zero triple).  ``h`` is
diagonal there, so entry ``(a, b)`` has ad-h degree ``w_a - w_b``.

The tail of the module is pure combinatorics of nilpotent orbits: partitions,
orbit dimensions via the transpose partition, and the largest weight spread
among orbits of a given dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import linalg
from .errors import EngineError, NoSuchOrbit, NotNilpotent
from .field import common_context


def _complete_basis(have: list, candidates: list) -> list:
    """Members of ``candidates`` that greedily extend ``span(have)``: the
    candidate pivot columns of ``have`` and ``candidates`` side by side."""
    pivots = linalg.pivot_columns([(0, row) for row in
                                   linalg.transpose(list(have) + list(candidates))])
    return [candidates[p - len(have)] for p in pivots if p >= len(have)]


def jordan_chains(f: Sequence[Sequence]) -> list:
    """Jordan chains ``[v, f v, ..., f^(k-1) v]`` of a nilpotent ``f``.

    Chains come out ordered by decreasing length.  Tops of length-``j``
    chains are chosen to complete ``ker(f^(j-1))`` plus the pushed-down
    vectors of the longer chains inside ``ker(f^j)``.  The powers stop at
    the first ``f^d = 0``; raises :class:`NotNilpotent` if ``f^n`` is not.
    """
    n = len(f)
    power = f
    kernels = [[], linalg.nullspace(f)]
    while len(kernels[-1]) != n:
        if len(kernels) > n:
            raise NotNilpotent("matrix is not nilpotent")
        power = linalg.mat_mul(power, f)
        kernels.append(linalg.nullspace(power))
    d = len(kernels) - 1
    chains: list = []
    for j in range(d, 0, -1):
        carried = [ch[len(ch) - j] for ch in chains]
        for top in _complete_basis(kernels[j - 1] + carried, kernels[j]):
            chain = [top]
            for _ in range(j - 1):
                chain.append([x for x, in linalg.mat_mul(f, [[y] for y in chain[-1]])])
            chains.append(chain)
    if sum(len(ch) for ch in chains) != n:  # pragma: no cover
        raise EngineError("Jordan chains do not form a basis")
    return chains


@dataclass
class Sl2Triple:
    """The chain basis ``P`` (columns) of a nilpotent ``f``, its inverse, the
    weight of each basis column, the chain lengths, and the standard ``e``
    and ``f`` of :func:`chain_basis_triple`, which ``P`` conjugates to an
    sl2 triple through the original ``f``."""

    basis: list
    basis_inv: list
    weights: list
    block_sizes: list
    e: list
    f: list


def chain_basis_triple(tower, sizes: Sequence[int]) -> tuple:
    """Standard ``(e, f)`` for chains of the given lengths.

    In a basis ``c_0, ..., c_{k-1}`` per chain: ``f`` shifts down the chain
    (ones on the subdiagonal) and ``e`` raises with coefficients
    ``i (k - i)``, so ``[e, f]`` is diagonal with weights ``k - 1 - 2i``.
    """
    n = sum(sizes)
    e_std = linalg.zeros(tower, n, n)
    f_std = linalg.zeros(tower, n, n)
    offset = 0
    for k in sizes:
        for i in range(1, k):
            e_std[offset + i - 1][offset + i] = tower.rational(i * (k - i))
            f_std[offset + i][offset + i - 1] = tower.one()
        offset += k
    return e_std, f_std


def jacobson_morozov(f: Sequence[Sequence]) -> Sl2Triple:
    """The chain basis of ``f`` with its standard triple.  Given the standard
    ``e`` and ``h`` the ``f`` completing a triple is unique, so checking
    ``P^-1 f P == f_std`` checks every sl2 relation through ``f``."""
    n = len(f)
    tower = common_context(f)
    chains = jordan_chains(f)
    sizes = [len(ch) for ch in chains]
    cols = [v for ch in chains for v in ch]
    p = [[cols[j][i] for j in range(n)] for i in range(n)]
    p_inv = linalg.inverse(p)
    weights = [k - 1 - 2 * i for k in sizes for i in range(k)]
    e_std, f_std = chain_basis_triple(tower, sizes)
    if not linalg.mat_eq(linalg.mat_mul(p_inv, linalg.mat_mul(f, p)), f_std):  # pragma: no cover
        raise EngineError("triple construction failed: P^-1 f P != f_std")
    return Sl2Triple(p, p_inv, weights, sizes, e_std, f_std)


# ---------------------------------------------------------------------------
# nilpotent orbit combinatorics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of ``n`` as descending tuples."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def transpose_partition(shape: Sequence[int]) -> tuple:
    if not shape:
        return ()
    return tuple(
        sum(1 for part in shape if part >= k) for k in range(1, shape[0] + 1)
    )


def orbit_dim(shape: Sequence[int], n: int) -> int:
    """Dimension of the conjugation orbit of a nilpotent with Jordan type
    ``shape``: ``n^2`` minus the centralizer dimension ``sum((shape^t)_k^2)``."""
    if sum(shape) != n:
        raise EngineError("partition does not match the matrix size")
    return n * n - sum(k * k for k in transpose_partition(shape))


def weight_spread(shape: Sequence[int]) -> int:
    """Largest ad-h weight ``2 * (max part - 1)`` of the orbit's grading."""
    return 2 * (max(shape) - 1) if shape else 0


def realized_orbit_dims(n: int) -> list:
    """All orbit dimensions that actually occur for nilpotent n-by-n
    matrices, including 0 (the zero matrix)."""
    return sorted({orbit_dim(shape, n) for shape in partitions(n)})


def max_spread_for_dim(n: int, delta: int) -> int:
    """The largest weight spread among nilpotent orbits of dimension
    ``delta`` in gl_n."""
    spreads = [
        weight_spread(shape)
        for shape in partitions(n)
        if orbit_dim(shape, n) == delta
    ]
    if not spreads:
        raise NoSuchOrbit(f"no nilpotent orbit of dimension {delta} in gl_{n}")
    return max(spreads)
