"""Dense complex linear algebra for operators on small Hilbert spaces.

Everything here targets dimensions <= 8 (one to three qubits), so clarity and
determinism win over asymptotic performance. Matrices are plain complex
``numpy`` arrays; an operator tagged Hermitian must satisfy
``max_ij |M_ij - conj(M_ji)| <= HERM_TOL``.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError

# Absolute tolerance for conjugate symmetry. All model matrices are analytic
# and exactly Hermitian up to rounding, so this can be tight.
HERM_TOL = 1e-10

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def hermitian_deviation(matrix: np.ndarray) -> float:
    """Largest entrywise deviation from conjugate symmetry."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_check(matrix: np.ndarray, tol: float = HERM_TOL) -> bool:
    """True iff ``matrix`` is Hermitian within the absolute tolerance ``tol``."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float) if m.dtype == complex else m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return hermitian_deviation(m) <= tol


def eigh_stack(matrices: np.ndarray, tol: float = HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a stack of Hermitian
    matrices, shape (N, d, d), in one LAPACK call.

    No gauge is fixed: the speed kernel sum only uses the projectors. Raises
    ``ValueError`` for non-finite or non-Hermitian input and
    ``EigenSolverError`` when the solver fails to converge.
    """
    m = np.asarray(matrices, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    deviation = np.abs(m - m.conj().swapaxes(-2, -1))
    if deviation.max() > tol:
        index, *_ = np.unravel_index(np.argmax(deviation), deviation.shape)
        raise ValueError(
            f"matrix {index} of the stack is not Hermitian within {tol:.1e} "
            f"(deviation {deviation.max():.3e})"
        )
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolverError(f"eigendecomposition did not converge: {exc}") from exc


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with index convention (row a * dim_b + b)."""
    return np.kron(np.asarray(a), np.asarray(b))


def assert_density(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Validate a density operator (Hermitian, unit trace, PSD within tol)."""
    m = np.asarray(rho, dtype=complex)
    if not hermitian_check(m, max(tol, HERM_TOL)):
        raise ValueError("density operator must be Hermitian")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > tol:
        raise ValueError(f"density operator must have unit trace, got {trace:.6g}")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < -tol:
        raise ValueError(f"density operator has negative eigenvalue {smallest:.3e}")
    return m
