"""Exception hierarchy shared by all lossfit modules."""
from __future__ import annotations


class LossfitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LossfitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(LossfitError, ValueError):
    """An input record is invalid.  ``index`` identifies the offending row."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateBandError(DomainError):
    """The probability band between the truncation and censoring points vanishes."""


class EstimationError(LossfitError):
    """An estimator could not be computed from the given sample."""


class NoSolutionError(EstimationError):
    """A scalar target lies outside the range of the monotone function."""


class NoMleError(EstimationError):
    """The left-truncated likelihood has no interior maximum.

    The sample moment ratio ``delta`` must lie strictly between 1 and 2
    for a maximizer to exist; the offending value is attached.
    """

    def __init__(self, message: str, delta: float):
        super().__init__(message)
        self.delta = delta


class ConvergenceError(EstimationError):
    """An iterative solver stopped before meeting its residual tolerance.

    Carries the last iterate (a float, or a tuple of floats), the residual
    norm there, and the number of iterations spent.
    """

    def __init__(self, message: str, last=None, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        if last is not None:  # plain floats, never numpy scalars
            last = tuple(map(float, last)) if hasattr(last, "__len__") else float(last)
        self.last = last
        self.residual = None if residual is None else float(residual)
        self.iterations = iterations


class SingularMatrixError(EstimationError):
    """A Jacobian or information matrix is singular (or numerically so)."""


class TrimValidationError(LossfitError):
    """Trimming proportions violate the applicable windowing conditions."""
