"""Exception types raised by the library."""


class RuncompError(Exception):
    """Base class for all runcomp errors."""


class BoundMismatchError(RuncompError):
    """Two series with different truncation bounds were combined."""


class NotInvertibleError(RuncompError):
    """Inversion was requested for a series whose constant term is not +1 or -1."""


class CoefficientRangeError(RuncompError):
    """A coefficient beyond the truncation bound was requested (unknown, not zero)."""


class InvalidWordError(RuncompError):
    """Malformed word: empty, negative letters, or unparseable text."""


class ReducednessError(RuncompError):
    """A forbidden list in which one word occurs as a factor of another."""


class NotEasyCaseError(RuncompError):
    """The easy method was requested for a list with nonzero cross-correlations."""


class PivotError(RuncompError):
    """No unit pivot available while solving; an internal invariant was violated."""


class EnumerationCapError(RuncompError):
    """An oracle count refused because the weight exceeds the safety cap."""
