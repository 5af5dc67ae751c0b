"""Reduction of a connection to canonical leaves by gauge transformations.

The driver :func:`reduce` walks a connection down a tree of elementary moves
until every branch lands on a leaf it can certify:

* size 1 (nothing left to reduce),
* pole order <= 1 (regular singular; the residue is the invariant),

and on the way there it applies, per node:

* a scalar twist when the leading coefficient has a nonzero scalar
  semisimple part (peels one exponential monomial off the whole block),
* a normalization plus eigenvalue block split when the semisimple part is
  non-scalar (strictly smaller blocks),
* a chain-basis change, normalization against an sl2 triple through the
  nilpotent lead, and a shearing gauge otherwise.  The shear either lands
  directly on a regular-singular leaf or exposes a leading term with a
  strictly larger adjoint orbit, or the same orbit at a strictly smaller
  Katz slope ``(pole - 1) / ram``.  The size, the orbit and the slope,
  compared in that order, are the measure that drops along every edge.

Every move is recorded on the node (``ops``) so :func:`replay` can re-run the
whole tree against the input and check each leaf byte for byte.

:func:`stability_constant` bounds how many initial coefficients of the input
determine the tree: perturbing a pole-order-``r`` connection of size ``n`` at
exponents ``>= -r + stability_constant(n, r)`` cannot change any leaf
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg, sl2
from .cohomology import _pole_shift
from .connection import Connection
from .errors import (
    DomainViolation,
    EngineError,
    PrecisionExhausted,
    ZeroDivisorSplit,
)
from .leading import eigen_block_split, jordan_chevalley, sibuya_normalize
from .matrices import LaurentMatrix
from .series import INF, LaurentSeries

_MAX_DEPTH = 400
_MAX_RESTARTS = 40


# ---------------------------------------------------------------------------
# tree records
# ---------------------------------------------------------------------------


@dataclass
class ReductionNode:
    """One node of the reduction tree.

    ``ops`` is the ordered list of moves applied at this node before it
    leafed or recursed: ``("twist", series)``, ``("gauge", matrix)`` or
    ``("ramify", b)``; the node holds nothing that
    :func:`serialize.encode_tree` does not write.  Leaf kinds are
    ``rank_one`` and ``regular_singular`` (with ``leaf`` holding the reduced
    connection and ``residue`` the dt/t residue for the latter); internal
    kinds are ``split`` (children are the eigenvalue blocks, widths in
    ``sizes``) and ``descend`` (single child after a shear).
    """

    kind: str
    size: int
    ram: int
    pole: int | None
    ops: list = dataclass_field(default_factory=list)
    children: list = dataclass_field(default_factory=list)
    sizes: list | None = None
    leaf: Connection | None = None
    residue: list | None = None
    measure: tuple | None = None
    alpha: Fraction | None = None
    shear_base: int | None = None
    lead_partition: tuple | None = None


@dataclass
class ReductionTree:
    root: ReductionNode
    source: Connection
    working: Connection
    restarts: int = 0

    def leaves(self):
        def walk(node):
            if node.children:
                for child in node.children:
                    yield from walk(child)
            else:
                yield node

        yield from walk(self.root)


# ---------------------------------------------------------------------------
# shearing
# ---------------------------------------------------------------------------


@dataclass
class ShearData:
    """Slope bookkeeping for a nilpotent-lead connection in its chain basis.

    ``alpha`` is the least slope ``(i + r) / (w_a - w_b + 2)`` over the
    entries ``(a, b)`` with a nonzero coefficient at ``u**i``, ``-r < i <
    prec`` (``None`` when there is none), and ``critical`` lists the ``(i,
    w_a - w_b)`` at ``alpha``; ``w_a - w_b`` is the ad-h weight of an entry in
    the chain basis.  ``tail_min`` is the best slope the unknown tail could
    still realize; comparisons against it decide whether a shear is
    justified by the known window alone.
    """

    alpha: Fraction | None
    j_max: int
    tail_min: Fraction
    critical: list


def compute_alpha(c: Connection, weights) -> ShearData:
    r, s = -c.valuation, c.prec
    if s is INF:
        raise DomainViolation("slope analysis needs a truncated connection")
    j_max = max(weights) - min(weights)
    # coefficients at or past s, which some entries know: tail_min covers them
    pairs = sorted({(Fraction(i + r, j + 2), i, j)
                    for a, row in enumerate(c.matrix.entries) for b, x in enumerate(row)
                    for j in [weights[a] - weights[b]] if j + 2 > 0
                    for i in x.support() if -r < i < s})
    alpha = pairs[0][0] if pairs else None
    critical = [(i, j) for cand, i, j in pairs if cand == alpha]
    return ShearData(alpha, j_max, Fraction(s + r, j_max + 2), critical)


def shear(c: Connection, weights, q: Fraction):
    """Ramify and gauge by ``diag(u**(b*q*w_k))`` for ``q = -a/b < 0``.

    Returns ``(sheared, b, gauge)``.  The entry at row weight ``w_a`` and
    column weight ``w_b`` moves from exponent ``i`` (before ramification) to
    ``b*i + b - 1 + b*q*(w_a - w_b)``.
    """
    q = Fraction(q)
    if q >= 0:
        raise DomainViolation("shearing slopes must be negative")
    b = q.denominator
    c2 = c.ramify(b)
    exps = [int(b * q * w) for w in weights]
    g = LaurentMatrix.monomial_diagonal(c2.tower, exps, c2.ram)
    return c2.gauge(g), b, g


def slodowy_prediction(c: Connection, weights, f_std, data: ShearData):
    """The forced leading term of the shear at slope ``data.alpha``: the
    nilpotent lead plus the entries of weight ``j`` of the coefficient at
    ``u**i`` for each ``(i, j)`` of ``data.critical``, the components sitting
    exactly on the slope (all in the chain basis, at the pre-ramification
    scale)."""
    acc = [row[:] for row in f_std]
    for i, j in data.critical:
        for (a, w_a), (b, w_b) in product(enumerate(weights), repeat=2):
            if w_a - w_b == j:
                acc[a][b] += c.matrix.entry(a, b).coeff(i)
    return acc


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def default_working_precision(c: Connection) -> int:
    """The window :func:`reduce` truncates an exact input to: the last
    nonzero exponent (0 when there is none), plus twice the pole order (at
    least 1), plus 4.  It is a heuristic, not a bound: a reduction that
    needs a longer window raises :class:`PrecisionExhausted`, whose hint is
    not always the input's (the strict xfail
    ``test_a_precision_hint_exceeds_the_window_and_moves_the_failure_on``
    in ``tests/test_reduction.py``)."""
    support = c.matrix.support()
    top = max(support) if support else 0
    return top + 2 * _pole_shift(c) + 4


def _prepare(c: Connection) -> Connection:
    if c.prec is not INF or c.size == 1 or c.pole_order <= 1:
        return c  # truncated by the caller, or a leaf kept exact
    return c.truncate(default_working_precision(c))


def _check_measure(parent: tuple | None, measure: tuple, slope: Fraction) -> tuple:
    """The key ``(*measure, slope)`` of a node with the written ``measure``
    and the Katz slope ``(pole - 1) / ram``, which drops by ``2 alpha / ram``
    along a descend edge even where the orbit does not grow; raises unless
    it lies below the ``parent`` key."""
    mine = (*measure, slope)
    if parent is not None and not mine < parent:
        raise EngineError("reduction measure failed to decrease: (%s) -> (%s)" % tuple(
            ", ".join(map(str, key)) for key in (parent, mine)))
    return mine


def _node(kind, c, ops, **extra) -> ReductionNode:
    """The node of ``c`` after ``ops``; a leaf keeps ``c`` itself, and a
    ``regular_singular`` leaf also its residue in dt/t units."""
    pole = c.pole_order
    residue = None
    if kind == "regular_singular":
        scale = Fraction(1, c.ram)
        residue = [[x * scale for x in row] for row in c.residue()]
    return ReductionNode(
        kind=kind,
        size=c.size,
        ram=c.ram,
        pole=int(pole) if pole != -INF else None,
        ops=ops,
        leaf=c if kind in ("rank_one", "regular_singular") else None,
        residue=residue,
        **extra,
    )


def _reduce_node(c: Connection, parent_key, hints, depth) -> ReductionNode:
    """The subtree of ``c`` below a node whose :func:`_check_measure` key is
    ``parent_key`` (``None`` at the root).  A split block whose lead is the
    block of its parent's lead commutes with the semisimple part of that
    lead, so its :func:`sibuya_normalize` returns it with the identity gauge
    before any elimination.  A window that knows no coefficient at a pole of
    order >= 2 is refused by :meth:`Connection.leading`."""
    if depth > _MAX_DEPTH:  # pragma: no cover - safety net
        raise EngineError("reduction recursion exceeded the depth guard")
    ops: list = []
    twists = 0
    while True:
        n = c.size
        if n == 1:
            return _node("rank_one", c, ops)
        r = c.pole_order
        if r <= 1:
            return _node("regular_singular", c, ops)
        r = int(r)
        lead = c.leading()
        jc = jordan_chevalley(lead)
        if len(jc.minpoly) > 2:
            measure = (n, 0)
            key = _check_measure(parent_key, measure, Fraction(r - 1, c.ram))
            rec = sibuya_normalize(c, jc.semisimple)
            ops.append(("gauge", rec.gauge))
            split = eigen_block_split(rec.connection, jc, hints)
            ops.append(("gauge", split.transform))
            children = [_reduce_node(block, key, hints, depth + 1) for block in split.blocks]
            return _node("split", c, ops, children=children,
                         sizes=split.sizes, measure=measure)
        scalar = jc.semisimple[0][0]
        if not scalar.is_zero():
            # exponential monomial shared by the whole block: twist it away
            # and rescan (the pole drops or the lead turns nilpotent).
            phi = LaurentSeries.monomial(c.tower, -scalar, -r, c.ram)
            c = c.scalar_twist(phi)
            ops.append(("twist", phi))
            twists += 1
            if twists > r + c.size + 4:  # pragma: no cover - loop guard
                raise EngineError("scalar twist loop failed to terminate")
            continue
        # nilpotent leading term
        triple = sl2.jacobson_morozov(lead)
        partition = tuple(triple.block_sizes)
        measure = (n, n * n - sl2.orbit_dim(partition, n))  # orbit_dim = rank(ad lead)
        key = _check_measure(parent_key, measure, Fraction(r - 1, c.ram))
        g_basis = LaurentMatrix.constant(c.tower, triple.basis_inv, c.ram)
        c = c.gauge(g_basis)
        ops.append(("gauge", g_basis))
        rec = sibuya_normalize(c, triple.e)
        ops.append(("gauge", rec.gauge))
        c = rec.connection
        data = compute_alpha(c, triple.weights)
        rs_slope = Fraction(r - 1, 2)
        to_leaf = data.alpha is None or data.alpha >= rs_slope
        if to_leaf and data.tail_min < rs_slope:
            needed = math.ceil(Fraction((r - 1) * (data.j_max + 2), 2) - r)
            raise PrecisionExhausted(
                "the unknown tail could still carry a slope below "
                f"{rs_slope}; the window ends at exponent {c.prec} but "
                f"this shear needs at least {needed}",
                needed=needed,
            )
        if not to_leaf and data.tail_min <= data.alpha:
            needed = math.floor(data.alpha * (data.j_max + 2) - r) + 1
            raise PrecisionExhausted(
                f"slope {data.alpha} is not below every slope the unknown "
                f"tail could carry; the window ends at exponent {c.prec} "
                f"but this shear needs at least {needed}",
                needed=needed,
            )
        slope = rs_slope if to_leaf else data.alpha
        sheared, b, g_shear = shear(c, triple.weights, -slope)
        if b > 1:
            ops.append(("ramify", b))
        ops.append(("gauge", g_shear))
        extra = dict(measure=measure, alpha=data.alpha, shear_base=b,
                     lead_partition=partition)
        if to_leaf:
            v = sheared.valuation
            if v is not INF and v < -1:  # pragma: no cover - soundness check
                raise EngineError("regular-singular shear left a deep pole")
            return _node("regular_singular", sheared, ops, **extra)
        a, b_den = data.alpha.numerator, data.alpha.denominator
        expected_exp = -(b_den * r - 2 * a - b_den + 1)
        predicted = linalg.mat_scale(
            b, slodowy_prediction(c, triple.weights, triple.f, data)
        )
        if sheared.valuation != expected_exp or not linalg.mat_eq(
            sheared.leading(), predicted
        ):  # pragma: no cover - soundness check
            raise EngineError("sheared leading term disagrees with its prediction")
        child = _reduce_node(sheared, key, hints, depth + 1)
        return _node("descend", c, ops, children=[child], **extra)


def reduce(connection: Connection) -> ReductionTree:
    """Reduce ``connection`` and return the full tree of moves and leaves.

    Exact input with a pole of order >= 2 is truncated to
    :func:`default_working_precision` first; to choose the window yourself,
    pass ``connection.truncate(p)``.  If an internal algebraic extension turns
    out to be reducible mid-run (:class:`ZeroDivisorSplit` above the caller's
    own tower), the discovered factorization is remembered and the whole
    reduction restarts, at most ``_MAX_RESTARTS`` times; splits inside the
    caller's tower propagate, since only the caller knows which branch they
    mean.
    """
    work = _prepare(connection)
    base_depth = connection.tower.depth
    hints: dict = {}
    restarts = 0
    while True:
        try:
            root = _reduce_node(work, None, hints, 0)
            return ReductionTree(
                root=root, source=connection, working=work, restarts=restarts
            )
        except ZeroDivisorSplit as exc:
            if exc.tower is None or exc.level <= base_depth:
                raise
            if restarts >= _MAX_RESTARTS:
                raise EngineError(f"the reduction reached its limit of {_MAX_RESTARTS} "
                                  "restarts on newly found factorizations") from exc
            key = exc.tower.levels[exc.level - 1]
            if key in hints:  # pragma: no cover
                raise EngineError(
                    "a remembered factorization failed to resolve its split"
                ) from exc
            hints[key] = tuple(tuple(f) for f in exc.factors)
            restarts += 1


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay(tree: ReductionTree, connection: Connection | None = None) -> bool:
    """Re-apply every recorded move and check each leaf on its known window.

    Raises :class:`EngineError` on the first mismatch; returns ``True``
    otherwise.  Pass ``connection`` to replay against a perturbed input (the
    stability tests do) instead of the tree's own working copy.
    """
    start = tree.working if connection is None else connection
    _replay_node(tree.root, start)
    return True


def _replay_node(node: ReductionNode, c: Connection) -> None:
    for op in node.ops:
        tag = op[0]
        if tag == "twist":
            c = c.scalar_twist(op[1])
        elif tag == "gauge":
            c = c.gauge(op[1])
        elif tag == "ramify":
            c = c.ramify(op[1])
        else:  # pragma: no cover
            raise EngineError(f"unknown replay op {tag!r}")
    if node.kind in ("rank_one", "regular_singular"):
        if not c.coincides_with(node.leaf):
            raise EngineError("replay reached a different leaf")
    elif node.kind == "descend":
        _replay_node(node.children[0], c)
    elif node.kind == "split":
        for child, block in zip(node.children, c.block_split(node.sizes)):
            _replay_node(child, block)
    else:  # pragma: no cover
        raise EngineError(f"unknown node kind {node.kind!r}")


# ---------------------------------------------------------------------------
# stability of the reduction under tail perturbations
# ---------------------------------------------------------------------------

#: Cases where the recursive bound is known not to be sharp, with the sharp
#: value.  Kept separate so the bound itself stays a theorem.
KNOWN_SHARP = {(2, 2): 1}


@lru_cache(maxsize=None)
def _inner_bound(n: int, r: int, delta: int) -> Fraction:
    """Stability bound for size ``n``, pole ``r``, assuming the nilpotent
    part of the leading term has adjoint orbit dimension exactly ``delta``."""
    j = sl2.max_spread_for_dim(n, delta)
    b1 = Fraction(j * (r - 1), 2) - 1
    prefix = Fraction((j + 2) * j * (r - 1), 2)
    deeper_pole = (j + 2) * (r - 1) + 1
    b2 = prefix + max(_stability(m, deeper_pole) for m in range(1, n))
    bounds = [b1, b2, Fraction(0)]
    higher = [d for d in sl2.realized_orbit_dims(n) if d > delta]
    if higher:
        bounds.append(
            prefix + max(_inner_bound(n, deeper_pole, d) for d in higher)
        )
    return max(bounds)


@lru_cache(maxsize=None)
def _stability(n: int, r: int) -> Fraction:
    if n <= 1 or r <= 1:
        return Fraction(0)
    best = max(_stability(m, r) for m in range(1, n))
    for delta in sl2.realized_orbit_dims(n):
        best = max(best, _inner_bound(n, r, delta))
    return best


def stability_constant(n: int, r: int) -> int:
    """Tail exponent bound: changing a size-``n``, pole-order-``r``
    connection at exponents ``>= -r + stability_constant(n, r)`` changes no
    leaf invariant of its reduction.  Proven bound, not always sharp; see
    :data:`KNOWN_SHARP`."""
    if n < 1:
        raise DomainViolation("size must be at least 1")
    if r < 0:
        raise DomainViolation("pole order must be >= 0")
    return math.ceil(_stability(n, r))
