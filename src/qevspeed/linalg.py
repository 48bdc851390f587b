"""Dense complex linear algebra for operators on small Hilbert spaces.

Everything here targets dimensions <= 8 (one to three qubits), so clarity and
determinism win over asymptotic performance. Matrices are plain complex
``numpy`` arrays; an operator tagged Hermitian must satisfy
``max_ij |M_ij - conj(M_ji)| <= HERM_TOL``. ``hermitian_stack`` is the
package's one finite and Hermitian check, and ``eigh_stack`` its one
eigensolver, for stacks of any size. It serves the dense adapter
(``speed.kernel_speeds``) only: the built-in models take no eigensystem.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError

# Absolute tolerance for conjugate symmetry. All model matrices are analytic
# and exactly Hermitian up to rounding, so this can be tight.
HERM_TOL = 1e-10


def hermitian_stack(matrices: np.ndarray) -> np.ndarray:
    """The input as a complex stack of shape (N, d, d), after the check.

    Raises ``ValueError`` for input that is not a stack of square matrices,
    is not finite or is more than ``HERM_TOL`` from Hermitian.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of square matrices (N, d, d), got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    deviation = np.abs(m - m.conj().swapaxes(-2, -1))
    if deviation.max(initial=0.0) > HERM_TOL:
        index, *_ = np.unravel_index(np.argmax(deviation), deviation.shape)
        raise ValueError(
            f"matrix {index} of the stack is not Hermitian within {HERM_TOL:.1e} "
            f"(deviation {deviation.max():.3e})"
        )
    return m


def eigh_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a stack of Hermitian
    matrices, shape (N, d, d), in one LAPACK call.

    No gauge is fixed: the speed kernel sum only uses the projectors. Checks
    its input with ``hermitian_stack``; raises ``EigenSolverError`` when the
    solver fails to converge.
    """
    m = hermitian_stack(matrices)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolverError(f"eigendecomposition did not converge: {exc}") from exc
