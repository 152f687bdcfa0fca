"""Exception hierarchy shared by every module."""


class ICAllocError(Exception):
    """Base class for all errors raised by this package."""


class ParameterRegimeWarning(UserWarning):
    """Parameters outside the regime where the cost guarantees are promised."""


class InvalidArgument(ICAllocError, ValueError):
    """An argument outside its domain, e.g. a count below 1."""


class InvalidDimensions(ICAllocError):
    """A (n, d) combination outside the valid domain, e.g. d = 0 or d > n."""


class RankOutOfRange(ICAllocError):
    """A lexicographic rank outside [1, C(n, d)]."""


class BetaOutOfRange(ICAllocError):
    """A support-family size outside its admissible range."""


class IndexOutOfRange(ICAllocError):
    """A block index outside [1, m]."""


class DegenerateDenominator(ICAllocError):
    """The density threshold is undefined because its denominator is <= 0."""


class InvalidPhi(ICAllocError):
    """A sampling probability / density outside its admissible interval."""


class UnsupportedParameters(ICAllocError):
    """The construction has no valid instantiation for these (n, d, N)."""


class DimensionMismatch(ICAllocError):
    """A task set and a partition built for different (n, d)."""


class InstanceTooLarge(ICAllocError):
    """An exhaustive or materialized computation beyond its configured cap."""


class ParseError(ICAllocError):
    """Malformed input text.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEdge(ParseError):
    """The same edge listed twice."""


class IndexOutOfBounds(ParseError):
    """An edge element outside [1, n]."""


class SchemaError(ICAllocError):
    """A structured document missing required keys or holding bad values."""
