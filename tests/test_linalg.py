import numpy as np
import pytest

from qevspeed.linalg import HERM_TOL, eigh_stack
from qevspeed.models import DENSITY_TOL, concurrence
from util import random_density, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def eigh(matrix):
    """``eigh_stack`` on one matrix: its eigenvalues and eigenvectors."""
    values, vectors = eigh_stack(np.asarray(matrix)[None])
    return values[0], vectors[0]


class TestHermitianCheck:
    """``eigh_stack`` is the one finite and Hermitian check."""

    def test_identity(self):
        eigh(np.eye(2, dtype=complex))

    def test_symmetric_but_not_hermitian(self):
        m = np.array([[0.0, 1.0j], [1.0j, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(m)

    @pytest.mark.parametrize("pop", [0.0, 0.25, 0.5, 1.0])
    def test_damped_qubit_matrix_shape(self, pop):
        # [[r11 P, r10 sqrt(P)], [r01 sqrt(P), 1 - r11 P]] with real r10 is
        # Hermitian for every P in [0, 1]
        r11, r10 = 0.4, 0.25
        root = np.sqrt(pop)
        m = np.array([[r11 * pop, r10 * root], [r10 * root, 1 - r11 * pop]], complex)
        eigh(m)

    def test_rejects_nonfinite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]], complex)
        with pytest.raises(ValueError, match="NaN"):
            eigh(m)

    def test_rejects_nonsquare(self):
        for shape in ((1, 2, 3), (2, 3), (2,)):
            with pytest.raises(ValueError, match=r"square matrices \(N, d, d\), got shape"):
                eigh_stack(np.zeros(shape))

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_tolerance(self, side):
        # an antisymmetric real part of side * HERM_TOL on one pair of entries
        m = np.diag([0.3, 0.7]).astype(complex)
        m[0, 1] = side * HERM_TOL
        if side < 1.0:
            eigh(m)
        else:
            with pytest.raises(ValueError, match="matrix 0 of the stack is not Hermitian"):
                eigh(m)

    def test_names_the_matrix(self):
        stack = np.stack([np.eye(2), np.eye(2), np.triu(np.ones((2, 2)))])
        with pytest.raises(ValueError, match="matrix 2 of the stack"):
            eigh_stack(stack)

    def test_empty_stack(self):
        values, vectors = eigh_stack(np.zeros((0, 2, 2)))
        assert values.shape == (0, 2) and vectors.shape == (0, 2, 2)


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]], complex))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m = random_hermitian(rng, dim)
            values, vectors = eigh(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-12 * dim * max(
                1.0, np.linalg.norm(m)
            )
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
            assert np.all(np.diff(values) >= 0.0)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_density_eigenvalue_bounds(self, dim):
        rng = np.random.default_rng(13)
        for _ in range(300):
            values, _ = eigh(random_density(rng, dim))
            assert values[0] >= -1e-12
            assert values[-1] <= 1.0 + 1e-12
            assert abs(np.sum(values) - 1.0) <= 1e-12


class TestAssertDensity:
    """The density-operator checks of ``concurrence``: finite and Hermitian
    through ``eigh_stack``, trace and positivity on its eigenvalues."""

    def test_accepts_valid(self):
        rng = np.random.default_rng(17)
        concurrence(random_density(rng, 4))

    def test_rejects_traceless(self):
        with pytest.raises(ValueError, match="trace"):
            concurrence(np.diag([0.7, 0.7, 0.0, 0.0]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN"):
            concurrence(np.diag([np.inf, 0.0, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_trace_tolerance(self, side):
        rho = np.diag([0.25, 0.25, 0.25, 0.25 + side * DENSITY_TOL]).astype(complex)
        if side < 1.0:
            assert concurrence(rho) == 0.0
        else:
            with pytest.raises(ValueError, match="unit trace"):
                concurrence(rho)

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_positivity_tolerance(self, side):
        small = side * DENSITY_TOL
        rho = np.diag([-small, 0.5, 0.25, 0.25 + small]).astype(complex)
        if side < 1.0:
            assert concurrence(rho) == 0.0
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                concurrence(rho)

    @pytest.mark.parametrize("side", [0.99, 1.01, 10.0])
    def test_hermitian_tolerance_is_herm_tol(self, side):
        # 10 * HERM_TOL passed the 1e-8 Hermitian check concurrence used to
        # make on its own; it now fails the package's one check
        vec = np.array([0.6, 0, 0, 0.8], dtype=complex)
        rho = np.outer(vec, vec)
        rho[1, 2] = side * HERM_TOL
        if side < 1.0:
            assert concurrence(rho) == pytest.approx(0.96, abs=1e-9)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                concurrence(rho)
