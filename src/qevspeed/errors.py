"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """Base class for numerical errors that abort an evaluation."""


class EigenSolverError(NumericalFailure):
    """The eigensolver did not converge."""


class RankIncreaseError(NumericalFailure):
    """A vanished eigenvalue pair carries a non-negligible derivative element.

    The spectral sum for the speed drops matrix elements between eigenvectors
    whose eigenvalues have both (numerically) vanished; that is only sound
    when the dynamics never re-populates those directions. A large element at
    such a pair means the trajectory is leaving its rank closure.
    """

    def __init__(self, time: float, pair: tuple[int, int], magnitude: float):
        self.time = time
        self.pair = pair
        self.magnitude = magnitude
        super().__init__(
            f"derivative element {magnitude:.3e} at boundary eigenvalue pair "
            f"{pair} (t = {time:.6g}); the dynamics increases the state rank"
        )


class RootBracketError(NumericalFailure):
    """Root finding failed: no sign change on the bracket, or no convergence."""


class MetricRejectionError(ValueError):
    """The requested metric cannot be used (no continuous boundary extension)."""
