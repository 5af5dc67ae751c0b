"""Exact reduction of meromorphic connections over a formal punctured disk.

A connection ``d + G(u) du`` (``G`` a square matrix of truncated Laurent
series over an exact characteristic-zero coefficient field) is reduced to
canonical rank-one and regular-singular pieces by gauge transformations,
scalar twists and ramified pullbacks, with every move recorded in a
replayable tree.  On top of the reduction sit the de Rham cohomology
dimensions with certified windows, and the stability bound that says how
much of a coefficient tail can never matter.
"""

from __future__ import annotations

from .cohomology import (
    DeRhamDims,
    LatticeWindow,
    RsSpectrum,
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
from .connection import Connection
from .errors import (
    DomainViolation,
    EngineError,
    LinearSolveFailed,
    NoSuchOrbit,
    NotBlockDiagonal,
    NotInvertible,
    NotNilpotent,
    NotRegularSingular,
    ParseError,
    PrecisionExhausted,
    ScalarLeadingTerm,
    Unstabilized,
    ZeroDivisorSplit,
)
from .field import FieldElement, FieldTower, common_tower
from .matrices import LaurentMatrix
from .reduction import (
    KNOWN_SHARP,
    ReductionNode,
    ReductionTree,
    reduce,
    replay,
    stability_constant,
)
from .series import INF, LaurentSeries

__all__ = [
    "Connection",
    "DeRhamDims",
    "DomainViolation",
    "EngineError",
    "FieldElement",
    "FieldTower",
    "INF",
    "KNOWN_SHARP",
    "LatticeWindow",
    "LaurentMatrix",
    "LaurentSeries",
    "LinearSolveFailed",
    "NoSuchOrbit",
    "NotBlockDiagonal",
    "NotInvertible",
    "NotNilpotent",
    "NotRegularSingular",
    "ParseError",
    "PrecisionExhausted",
    "ReductionNode",
    "ReductionTree",
    "RsSpectrum",
    "ScalarLeadingTerm",
    "Unstabilized",
    "ZeroDivisorSplit",
    "common_tower",
    "derham_dims",
    "doubling_dims",
    "dual_connection",
    "euler_bound_check",
    "flat_section_dim",
    "h1_generators",
    "ramified_decomposition_check",
    "reduce",
    "replay",
    "rs_spectrum",
    "stability_constant",
    "truncated_complex_dims",
]

__version__ = "0.1.0"
