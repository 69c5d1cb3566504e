"""Shared exception types.

Every error that a caller is expected to catch lives here; modules raise
plain ValueError only for programming mistakes (bad argument shapes).
"""


class ShiftcatError(Exception):
    """Base class for all library errors."""


class EmptyShift(ShiftcatError):
    """The presentation describes an empty subshift (nothing survives trimming)."""


class NonIntegralCoefficient(ShiftcatError):
    """A zeta coefficient came out non-integral; the periodic counts are buggy."""


class SizeLimit(ShiftcatError):
    """A generation or search exceeded its configured bound."""


class TooShort(ShiftcatError):
    """A word or term is too short for the requested boundary operation."""


class UnassignedLetter(ShiftcatError):
    """Term evaluation met a letter with no assigned semigroup element."""


class InvalidArrow(ShiftcatError):
    """A triple (e, u, f) failed the arrow condition e*u*f = u in some quotient."""


class MismatchBug(ShiftcatError):
    """Two computations that are provably equal disagreed; implementation bug."""


class DiamondOnly(ShiftcatError):
    """Contraction was asked to erase a term consisting only of the fresh symbol."""


class NotInMirage2(ShiftcatError):
    """Classification input has a forbidden factor of length at most 2."""


class NotIdempotentWitness(ShiftcatError):
    """The term handed to eta is not idempotent in the test quotients."""


class ClassificationFailure(ShiftcatError):
    """An idempotent term fit none of the shapes the classifier knows."""
