"""Shared exception types."""


class Stab23Error(Exception):
    pass


class PrecisionMismatch(Stab23Error):
    """Two values at different 3-adic precisions entered one operation."""


class NonUnitError(Stab23Error):
    """Inversion or a group operation was attempted on a non-unit."""


class ClosureBoundExceeded(Stab23Error):
    """Subgroup closure search exceeded its configured element cap."""


class ResourceBoundExceeded(Stab23Error):
    """A quotient, window or matrix size exceeded the configured bound."""


class ExactnessBoundExceeded(ResourceBoundExceeded, ValueError):
    """A matrix is too large for exact int64 or float64 arithmetic."""


class PrecisionUnstable(Stab23Error):
    """A reported rank changed when recomputed at precision N+2."""


class CheckFailed(Stab23Error):
    """An exact identity or structural assertion did not hold."""


class ConstructionRefused(CheckFailed):
    """A construction found no admissible generator, so it was not built.

    Unlike its parent class this is a reported outcome at shallow levels,
    not a broken identity.
    """
