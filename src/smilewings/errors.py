"""Exception hierarchy shared across the package.

Every error raised on purpose by this library derives from
:class:`SmileWingsError`, so callers can catch one type at the boundary.
Domain violations additionally derive from :class:`ValueError` via
:class:`DomainError` to stay friendly to generic callers.
"""

from __future__ import annotations


class SmileWingsError(Exception):
    """Base class for all library errors."""


class DomainError(SmileWingsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class MaxIterations(SmileWingsError):
    """An iteration hit its step limit; ``best`` holds the last iterate."""

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


class ToleranceNotReached(SmileWingsError):
    """A quadrature or solver finished without meeting the requested tolerance.

    ``value`` carries the best estimate, ``error_estimate`` its error bound.
    """

    def __init__(self, message: str, value: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class PriceBelowIntrinsic(DomainError):
    """A quoted put price sits below the intrinsic value (e^x - 1)^+."""


class PriceAtOrAboveCap(DomainError):
    """A quoted put price sits at or above the large-vol cap e^x."""


class EmptyTail(DomainError):
    """A tail-estimation window contains no usable smile points."""


class NonPositiveVol(DomainError):
    """An implied-vol input is zero or negative where positivity is required."""


class DivergentWing(SmileWingsError):
    """A wing extrapolation makes the requested integral infinite."""


class NotMonotone(SmileWingsError):
    """A map that must be strictly monotone is not; ``interval`` locates it."""

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


class GrowthViolation(SmileWingsError):
    """A payoff grows faster than the smile's certified moment order allows."""


class Unsupported(SmileWingsError):
    """The requested operation is undefined for this model."""


class FileFormatError(SmileWingsError):
    """An input file is structurally malformed (bad header, wrong columns)."""
