"""Exception hierarchy for the reduction engine.

Every failure mode the engine can report deliberately is a subclass of
``EngineError``; anything else escaping the public API is a bug.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class DomainViolation(EngineError):
    """An operation was invoked outside its documented domain."""


class ParseError(EngineError):
    """Malformed input data (JSON schema, rational syntax, windows)."""


class PrecisionExhausted(EngineError):
    """A result would require coefficients beyond the known window.

    ``needed`` is the smallest precision (exponent bound in the current
    variable) that would let the failing operation proceed, when that is
    meaningful, else ``None``.
    """

    def __init__(self, message: str, *, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


class NotInvertible(EngineError):
    """Exact inversion failed: the element/series/matrix has no inverse."""


class ZeroDivisorSplit(EngineError):
    """Inversion in a quotient ring exposed a factorization.

    Dynamic evaluation: the ring adjoined at ``level`` is a product, not a
    field.  ``factors`` holds two monic factor polynomials, each a tuple of
    the forms of its coefficients (elements one level down, see
    :mod:`mcred.field`), whose product is the registered minimal polynomial.  Callers retry over the branch they care about; the engine
    never silently picks one.
    """

    def __init__(self, message: str, level: int, factors, tower=None):
        super().__init__(message)
        self.level = level
        self.factors = factors
        self.tower = tower


class NotBlockDiagonal(EngineError):
    """A block split was requested along a partition the data does not respect."""


class ScalarLeadingTerm(EngineError):
    """The semisimple part is scalar; an eigenvalue split makes no progress."""


class NotNilpotent(EngineError):
    """A nilpotent matrix was required."""


class NoSuchOrbit(EngineError):
    """No nilpotent orbit of the requested dimension exists at this rank."""


class NotRegularSingular(EngineError):
    """A connection with pole order <= 1 was required."""


class Unstabilized(EngineError):
    """Window doubling reached ``MAX_LATTICE_COLUMNS`` before the dimensions
    settled."""


class LinearSolveFailed(EngineError):
    """An internally guaranteed linear system had no solution (a bug)."""
