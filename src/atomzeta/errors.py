"""Exception hierarchy shared by all atomzeta modules."""


class AtomzetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AtomzetaError):
    """Invalid mathematical input (maps to CLI exit code 2)."""


class InvalidDError(DomainError):
    """d is 0 or 1, which do not define a quadratic field."""


class NotSquarefreeError(DomainError):
    """d has a square factor."""


class MixedFieldError(DomainError):
    """Operands belong to different fields."""


class ZeroElementError(DomainError):
    """Operation undefined for the zero element."""


class UnitElementError(DomainError):
    """Operation undefined for units (e.g. atom factorization)."""


class ImaginaryFieldError(DomainError):
    """Operation restricted to real quadratic fields."""


class CapExceededError(DomainError):
    """A configured search cap was exceeded."""


class InternalInvariantError(AtomzetaError):
    """An internal consistency check failed (maps to CLI exit code 3)."""
