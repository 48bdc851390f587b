"""Dense complex linear algebra for operators on small Hilbert spaces.

Everything here targets dimensions <= 8 (one to three qubits), so clarity and
determinism win over asymptotic performance. ``svd_stack`` is a
decomposition for stacks of any size. No evaluator of the package calls it:
the built-in models take no decomposition, and the factor oracle of the
tests (``tests/util.py``) sums its F from it.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError


def svd_stack(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full singular value decomposition A = W Sigma V^dagger of a stack
    of matrices, shape (..., d, r), in one LAPACK call: W (..., d, d), the
    singular values (..., min(d, r)) in descending order and V^dagger
    (..., r, r).

    No gauge is fixed. Raises ``EigenSolverError`` when the solver fails to
    converge.
    """
    try:
        return np.linalg.svd(factors, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"singular value decomposition did not converge: {exc}") from exc
