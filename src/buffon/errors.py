"""Exception types shared across the package."""


class DegenerateSampleError(RuntimeError):
    """Raised when a sample contains no crossings/hits, so the reciprocal
    estimate would divide by zero."""


class WorkerDiedError(RuntimeError):
    """Raised when a worker process dies, or exits without all of its tally rows."""
