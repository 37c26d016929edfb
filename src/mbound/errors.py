"""Exception types shared across the package."""


class MboundError(Exception):
    """Base class for all package-specific errors."""


class MatrixFormatError(MboundError):
    """A matrix file or literal could not be parsed.

    Carries optional 1-based ``line``/``column`` attributes for diagnostics.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ClassMismatchError(MboundError):
    """Input matrix does not belong to the class an operation requires."""


class SingularMatrixError(MboundError):
    """Matrix is singular within the pivot tolerance."""


class ConvergenceError(MboundError):
    """Iteration failed to converge; ``best_estimate`` holds the last value."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


def unwrap(outcome):
    """A stacked solve records per problem either its result or the
    exception that problem raises alone; this returns the result, or
    raises the exception where the problem's caller would have met it."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
