"""Exception types shared across the package."""


class FracheatError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracheatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(FracheatError, RuntimeError):
    """A monotone target keeps its sign over the whole range searched for its root."""


class QuadratureError(FracheatError, RuntimeError):
    """A quadrature did not converge to the requested tolerance.

    Carries the best value obtained and the achieved error estimate so
    callers can decide whether to proceed anyway.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class UnsupportedModelError(FracheatError, TypeError):
    """The requested operation is not available for this model kind."""
