"""Exception hierarchy shared across the package.

Validation problems (bad arguments, domain violations, malformed files) are
kept distinct from numeric failures (solver breakdowns, inconclusive scans)
because the command line maps the two classes to different exit codes.
"""

__all__ = ["FredinfoError", "ValidationError", "PreconditionError", "UnsupportedError",
           "NumericError", "InconclusiveError"]


class FredinfoError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FredinfoError, ValueError):
    """Invalid argument, domain violation, basis mismatch or malformed input."""


class PreconditionError(ValidationError):
    """A mathematical precondition on the inputs is violated.

    Carries the measured quantities (e.g. norms) so callers can report them.
    """

    def __init__(self, message: str, **measured: float):
        super().__init__(message)
        self.measured = dict(measured)


class UnsupportedError(ValidationError):
    """Requested operation is outside the supported surface, by design."""


class NumericError(FredinfoError, RuntimeError):
    """Numeric failure: solver breakdown or a violated internal assertion."""


class InconclusiveError(NumericError):
    """A bounded search hit its limit before the answer could be certified."""
