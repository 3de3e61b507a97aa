"""Exception types shared across the package.

Every guard failure is a loud, typed error: factorial and exponential
enumerations must never be silently truncated.
"""


class CombSpectraError(Exception):
    """Base class for all package errors."""


class ParseError(CombSpectraError):
    """Malformed graph input; message carries the offending line number."""


class PreconditionError(CombSpectraError):
    """An operation was called outside its stated domain."""


class SizeGuardError(CombSpectraError):
    """An enumeration would exceed a configured resource cap."""


class NotDivisibleError(CombSpectraError):
    """Exact division failed; the dividend is not a multiple of the divisor."""


class StabilizationError(CombSpectraError):
    """An iterated family power did not reach a fixed point within its cap."""


class TimeLimitError(CombSpectraError):
    """A configured wall-clock deadline was exceeded."""


class UsageError(ValueError):
    """An argument outside what an entry point accepts, found before any
    work starts; the command line reports it as a usage error."""
