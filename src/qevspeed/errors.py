"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """Base class for numerical errors that abort an evaluation."""


class EigenSolverError(NumericalFailure):
    """The singular value decomposition did not converge."""


class MetricRejectionError(ValueError):
    """The requested metric cannot be used (no continuous boundary extension)."""
