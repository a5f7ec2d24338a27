"""Exception types shared across the package.

Validation errors (bad user input) and resource errors (requests beyond the
documented size caps) are kept distinct so the command line tool can map them
to different exit codes.
"""


class GroupFramesError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GroupFramesError):
    """Input violates a documented precondition."""


class ResourceError(GroupFramesError):
    """Request exceeds a documented size cap."""


class InvariantViolation(GroupFramesError):
    """An internal self-check failed; indicates a bug, not bad input."""


class NotPrime(ValidationError):
    """A parameter that must be prime is not."""


class DegreeTooLarge(ResourceError):
    """Field size p**r exceeds the supported cap."""


class ContextMismatch(ValidationError):
    """Data does not match the field context it claims."""


class NotADivisor(ValidationError):
    """A subgroup order must divide the multiplicative group order."""


class TooManyRows(ValidationError):
    """More rows requested than distinct multipliers exist."""


class ResourceCap(ResourceError):
    """Matrix or computation size beyond the documented cap."""


class NotNormalized(ValidationError):
    """Operation requires a frame with unit-norm columns."""


class BadShape(ValidationError):
    """Dimensions are inconsistent or out of range."""


class NotEvenPrimePower(ValidationError):
    """Group order parameter q must be a power of two, q >= 4."""


class QMinusOneNotPrime(ValidationError):
    """Induced-family constructions need q - 1 prime."""


class QPlusOneNotPrime(ValidationError):
    """Cuspidal-family constructions need q + 1 prime."""


class MNotOddDivisor(ValidationError):
    """Character subgroup parameter m must be an odd divisor."""
