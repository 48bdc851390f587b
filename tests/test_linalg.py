import numpy as np
import pytest

from qevspeed.linalg import assert_density, eigh_stack, hermitian_check, tensor
from util import random_density, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def eigh(matrix):
    """``eigh_stack`` on one matrix: its eigenvalues and eigenvectors."""
    values, vectors = eigh_stack(np.asarray(matrix)[None])
    return values[0], vectors[0]


class TestHermitianCheck:
    def test_identity(self):
        assert hermitian_check(np.eye(2, dtype=complex), 1e-12)

    def test_symmetric_but_not_hermitian(self):
        m = np.array([[0.0, 1.0j], [1.0j, 0.0]])
        assert not hermitian_check(m, 1e-12)

    @pytest.mark.parametrize("pop", [0.0, 0.25, 0.5, 1.0])
    def test_damped_qubit_matrix_shape(self, pop):
        # [[r11 P, r10 sqrt(P)], [r01 sqrt(P), 1 - r11 P]] with real r10 is
        # Hermitian for every P in [0, 1]
        r11, r10 = 0.4, 0.25
        root = np.sqrt(pop)
        m = np.array([[r11 * pop, r10 * root], [r10 * root, 1 - r11 * pop]], complex)
        assert hermitian_check(m, 1e-12)

    def test_rejects_nonfinite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]], complex)
        with pytest.raises(ValueError, match="NaN"):
            hermitian_check(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_check(np.zeros((2, 3)))


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


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_z_with_identity(self):
        np.testing.assert_array_equal(
            tensor(PAULI_Z, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0])
        )

    def test_basis_projector(self):
        # |1><1| x |0><0| = |10><10| in the (|11>,|10>,|01>,|00>) ordering
        excited = np.diag([1.0, 0.0])
        ground = np.diag([0.0, 1.0])
        np.testing.assert_array_equal(
            tensor(excited, ground), np.diag([0.0, 1.0, 0.0, 0.0])
        )

    def test_associativity_integer_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.integers(-3, 4, (2, 2))
            b = rng.integers(-3, 4, (2, 2))
            c = rng.integers(-3, 4, (2, 2))
            np.testing.assert_array_equal(
                tensor(tensor(a, b), c), tensor(a, tensor(b, c))
            )


class TestAssertDensity:
    def test_accepts_valid(self):
        rng = np.random.default_rng(17)
        assert_density(random_density(rng, 4))

    def test_rejects_traceless(self):
        with pytest.raises(ValueError, match="trace"):
            assert_density(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            assert_density(np.diag([1.5, -0.5]).astype(complex))
