"""``svd_stack``, the decomposition of the factor oracle (``util.factor_speeds``).
Of a factor A it gives the eigensystem of rho = A A^dagger: the eigenvalues
sigma^2 and the eigenvectors W."""

import numpy as np
import pytest

from qevspeed.errors import EigenSolverError
from qevspeed.linalg import svd_stack
from util import random_density

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def eigh(matrix):
    """The eigenvalues (ascending) and eigenvectors of a positive definite
    ``matrix``, from ``svd_stack`` of its Cholesky factor."""
    w, sigma, _ = svd_stack(np.linalg.cholesky(np.asarray(matrix, dtype=complex))[None])
    return sigma[0, ::-1] ** 2, w[0, :, ::-1]


class TestEigh:
    def test_identity(self):
        values, _ = eigh(np.eye(2, dtype=complex))
        np.testing.assert_allclose(values, [1.0, 1.0])

    def test_diagonal(self):
        values, vectors = eigh(np.diag([0.3, 0.7]).astype(complex))
        np.testing.assert_allclose(values, [0.3, 0.7])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-14)

    def test_bloch_x_state(self):
        # (I + r sx)/2 has eigenvalues (1 -/+ r)/2
        values, _ = eigh(0.5 * (np.eye(2) + 0.6 * PAULI_X))
        np.testing.assert_allclose(values, [0.2, 0.8], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_reconstruction_and_orthonormality(self, dim):
        # a factor of dim rows and dim - 1, dim or dim + 1 columns
        rng = np.random.default_rng(7)
        for _ in range(500):
            columns = dim + int(rng.integers(-1, 2))
            a = rng.standard_normal((dim, columns)) + 1j * rng.standard_normal((dim, columns))
            w, sigma, vh = svd_stack(a[None])
            rebuilt = (w[0, :, : sigma.size] * sigma[0]) @ vh[0, : sigma.size]
            assert np.linalg.norm(rebuilt - a) <= 1e-12 * dim * max(1.0, np.linalg.norm(a))
            for unitary in (w[0], vh[0]):
                gram = unitary.conj().T @ unitary
                assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-12
            assert np.all(np.diff(sigma[0]) <= 0.0)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_density_eigenvalue_bounds(self, dim):
        rng = np.random.default_rng(13)
        for _ in range(300):
            values, _ = eigh(random_density(rng, dim))
            assert values[0] >= -1e-12
            assert values[-1] <= 1.0 + 1e-12
            assert abs(np.sum(values) - 1.0) <= 1e-12


class TestSvdStack:
    def test_empty_stack(self):
        w, sigma, vh = svd_stack(np.zeros((0, 3, 2)))
        assert w.shape == (0, 3, 3) and sigma.shape == (0, 2) and vh.shape == (0, 2, 2)

    def test_non_finite_factor_does_not_converge(self):
        with pytest.raises(EigenSolverError, match="did not converge"):
            svd_stack(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))
