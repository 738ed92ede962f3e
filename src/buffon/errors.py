"""Exception types shared across the package."""


class UnsupportedConfigurationError(ValueError):
    """Raised when a requested configuration is outside the model's scope.

    The triangle estimator is implemented only for triangle side equal to
    the grid spacing.  The crossing rate itself holds at any ratio (by
    Cauchy-Crofton, ``12 * side / (pi * spacing)`` crossings per cast), but
    this code scales its estimate for ``side == spacing`` only, so other
    ratios are rejected rather than silently mis-scaled.
    """


class DegenerateSampleError(RuntimeError):
    """Raised when a sample contains no crossings/hits, so the reciprocal
    estimate would divide by zero."""
