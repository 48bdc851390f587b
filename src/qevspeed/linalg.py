"""Dense complex linear algebra for operators on small Hilbert spaces.

Everything here targets dimensions <= 8 (one to three qubits), so clarity and
determinism win over asymptotic performance. Matrices are plain complex
``numpy`` arrays; an operator tagged Hermitian must satisfy
``max_ij |M_ij - conj(M_ji)| <= HERM_TOL``. ``hermitian_stack`` is the
package's one finite and Hermitian check. ``pair_block`` is the closed-form
eigensystem of a 2x2 Hermitian stack; ``eigh_stack``, the one LAPACK
eigensolver, takes larger ones. Both serve the dense adapter
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


def pair_block(a, c, wr, wi, da, dc, dwr, dwi):
    """Closed-form eigensystem of the Hermitian block [[a, w], [w*, c]],
    w = wr + i wi, moving at D = [[da, dw], [dw*, dc]], dw = dwr + i dwi.

    Returns the eigenvalues (low, high) and the magnitudes of the elements
    of D in their eigenbasis: |D_low,low|, |D_high,high| and |D_low,high|.
    In Bloch form rho = m I + r n.sigma and D = dm I + dv.sigma, the
    diagonal elements are dm -/+ dv.n, and |D_low,high|^2 is
    |dv|^2 - (dv.n)^2, computed as |dv x n|^2 without its cancellation.
    A degenerate block (r = 0) takes n = -e_z, so that low and high are its
    first and second index. The small eigenvalue is det / high, which stays
    accurate where m - r cancels.

    The arguments are arrays that broadcast. Only the dense adapter
    (``speed.kernel_speeds``) takes this eigensystem; the built-in models
    state their blocks with the roots of their determinants and need none.
    """
    coherence = wr * wr + wi * wi
    h = 0.5 * (a - c)
    squared = h * h + coherence  # r^2
    radius = np.sqrt(squared)
    mean = 0.5 * (a + c)
    high = mean + radius
    positive = high > 0.0
    low = np.where(positive, (a * c - coherence) / np.where(positive, high, 1.0), mean - radius)
    # r n = (wr, -wi, h) and dv = (dwr, -dwi, dh); -e_z on a degenerate block
    flat = squared == 0.0
    h = np.where(flat, -1.0, h)
    radius = np.where(flat, 1.0, radius)
    dh = 0.5 * (da - dc)
    along = (h * dh + wr * dwr + wi * dwi) / radius
    x = dh * wi - dwi * h
    y = dh * wr - dwr * h
    z = dwi * wr - dwr * wi
    moved = 0.5 * (da + dc)
    d_low, d_high = moved - along, moved + along
    return low, high, abs(d_low), abs(d_high), np.sqrt(x * x + y * y + z * z) / radius
