"""The per-block kernel sum: closed-form 2x2 blocks, the block split of a
stack, and the one-point path on Python floats.

The dense ``np.linalg.eigh`` kernel in util.py is the oracle.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevspeed import linalg, speed
from qevspeed.linalg import pair_block
from qevspeed.metrics import MetricKind, kernel_value, mc_kernel
from qevspeed.models import MODEL_KEYS, trajectory_from_key
from qevspeed.speed import ELEM_TOL, kernel_speeds, speed_at, speeds_at
from util import conjugate_trajectory, dense_kernel_speeds, random_hermitian, random_unitary

# every branch of the amplitude factor: oscillatory, critical, hyperbolic
# (split at kappa t / 2 = 20, near t = 6.8 for Gamma = 7) and Markovian
BRANCHES = [
    {"Gamma_over_gamma0": 0.4},
    {"Gamma_over_gamma0": 2.0},
    {"Gamma_over_gamma0": 7.0},
    {"markovian_limit": True},
]
MODEL_CASES = [
    (key, bath) for key in MODEL_KEYS for bath in ([{}] if key.startswith("closed") else BRANCHES)
]


def block_eigensystem(rho, drho):
    """``pair_block`` of one 2x2 block, from its matrices."""
    return pair_block(
        rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
        drho[0, 0].real, drho[1, 1].real, drho[0, 1].real, drho[0, 1].imag,
    )


class TestPairBlock:
    def test_matches_the_dense_eigensystem(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            rho, drho = random_hermitian(rng, 2), random_hermitian(rng, 2)
            low, high, d_low, d_high, d_cross = block_eigensystem(rho, drho)
            values, vectors = np.linalg.eigh(rho)
            elements = np.abs(vectors.conj().T @ drho @ vectors)
            np.testing.assert_allclose([low, high], values, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(
                [d_low, d_high, d_cross], [elements[0, 0], elements[1, 1], elements[0, 1]], atol=1e-13
            )

    def test_small_eigenvalue_from_the_determinant(self):
        # m - r would lose seven digits of the eigenvalue 1e-9
        low, high, *_ = pair_block(1.0 - 1e-9, 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert low == pytest.approx(1e-9, rel=1e-15)
        assert high == 1.0 - 1e-9

    def test_cross_element_without_cancellation(self):
        # n = e_x and dv = (1, 0, delta): |dv|^2 - (dv.n)^2 rounds to 0, the
        # cross product keeps |D_low,high| = delta
        delta = 1e-9
        *_, d_cross = pair_block(0.5, 0.5, 0.5, 0.0, delta, -delta, 1.0, 0.0)
        assert d_cross == pytest.approx(delta, rel=1e-12)

    def test_degenerate_block_takes_the_standard_basis_in_index_order(self):
        low, high, d_low, d_high, d_cross = pair_block(0.5, 0.5, 0.0, 0.0, 0.3, -0.7, 0.2, -0.1)
        assert low == high == 0.5
        assert (d_low, d_high) == (pytest.approx(0.3, rel=1e-15), pytest.approx(0.7, rel=1e-15))
        assert d_cross == pytest.approx(math.hypot(0.2, 0.1), rel=1e-15)

    def test_zero_block(self):
        assert pair_block(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0) == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_floats_and_arrays_agree_to_the_last_bit(self):
        rng = np.random.default_rng(43)
        args = [rng.standard_normal(50) for _ in range(8)]
        args[0], args[1] = np.abs(args[0]) + 1.0, np.abs(args[1]) + 1.0
        batched = pair_block(*args)
        for i in range(50):
            one = pair_block(*(float(a[i]) for a in args))
            assert all(isinstance(value, float) for value in one)
            assert [value.hex() for value in one] == [float(column[i]).hex() for column in batched]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(MetricKind)),
    st.floats(1e-300, 1.0),
    st.floats(1e-300, 1.0),
)
def test_kernel_value_is_mc_kernel_on_floats(kind, x, y):
    assert kernel_value(kind, x, y) == float(mc_kernel(kind, x, y))


def random_block(rng, kind: str, size: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros((size, size), dtype=complex)
    if kind == "degenerate":
        return rng.uniform(0.1, 1.0) * np.eye(size, dtype=complex)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if kind == "rank1":
        return np.outer(m[:, 0], m[:, 0].conj())
    return m @ m.conj().T + 0.1 * np.eye(size)


@st.composite
def block_diagonal_stacks(draw):
    """Stacks of block-diagonal states with their derivatives, under a
    permutation of the indices: generic, degenerate (m I) and zero blocks of
    sizes 1 to 3, or a pure state (one rank-one block among zero blocks).
    Zero blocks either stay at rest or move, a rank increase."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4).filter(lambda s: 2 <= sum(s) <= 8))
    if draw(st.booleans()):
        kinds = ["zero"] * len(sizes)
        kinds[draw(st.integers(0, len(sizes) - 1))] = "rank1"
    else:
        kinds = draw(st.lists(st.sampled_from(["generic", "degenerate", "zero"]), min_size=len(sizes), max_size=len(sizes)))
        if all(kind == "zero" for kind in kinds):
            kinds[0] = "generic"
    leaking = draw(st.booleans())
    dim = sum(sizes)
    order = draw(st.permutations(range(dim)))
    points = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.zeros((points, dim, dim), dtype=complex)
    drho = np.zeros_like(rho)
    for n in range(points):
        start = 0
        for kind, size in zip(kinds, sizes):
            span = slice(start, start + size)
            rho[n, span, span] = random_block(rng, kind, size)
            if kind != "zero" or leaking:
                drho[n, span, span] = random_hermitian(rng, size)
            start += size
        rho[n] /= np.trace(rho[n]).real
    index = np.array(order)
    rho, drho = rho[:, index][:, :, index], drho[:, index][:, :, index]
    return rho, drho


@settings(max_examples=300, deadline=None)
@given(block_diagonal_stacks(), st.sampled_from(list(MetricKind)))
def test_block_kernel_matches_the_dense_kernel(stack, metric):
    rho, drho = stack
    times = np.arange(len(rho), dtype=float)
    got = kernel_speeds(rho, drho, metric, times)
    want = dense_kernel_speeds(rho, drho, metric, times)
    assert got.failures.keys() == want.failures.keys()
    for i, error in want.failures.items():
        assert (got.failures[i].time, got.failures[i].pair) == (error.time, error.pair)
        # the escaping elements lie in a degenerate (zero) eigenspace, whose
        # basis, and so the magnitude, each method picks its own way
        assert got.failures[i].magnitude >= ELEM_TOL
    for i, (speed, expected) in enumerate(zip(got.speeds, want.speeds)):
        if i in want.failures:
            assert math.isnan(speed)
        else:
            assert speed == pytest.approx(expected, rel=1e-12, abs=1e-13 * np.abs(drho[i]).max())


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_speed_at_is_the_batch_to_the_last_bit(key, bath, metric):
    rng = np.random.default_rng(47)
    times = np.concatenate([[0.0, 1e-6, 1e-3], rng.uniform(0.0, 45.0, 40)])
    for alpha in (0.0, *rng.uniform(0.05, 0.99, 2), 1.0):
        traj = trajectory_from_key(key, alpha=float(alpha), omega=1.7, **bath)
        batch = speeds_at(traj, times, metric).speeds
        one = np.array([speed_at(traj, float(t), metric) for t in times])
        assert one.tobytes() == batch.tobytes()


def test_built_in_models_run_no_eigensolver(monkeypatch):
    calls = []
    dense_solver = np.linalg.eigh

    def counted(matrices):
        calls.append(np.shape(matrices))
        return dense_solver(matrices)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    times = np.linspace(0.0, 20.0, 50)
    for key, bath in MODEL_CASES:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        for metric in MetricKind:
            speeds_at(traj, times, metric)
            speed_at(traj, 2.5, metric)
    assert calls == []
    # a dense trajectory is one block, which the eigensolver takes
    pair = trajectory_from_key("open-2q-aligned", alpha=0.7, Gamma_over_gamma0=0.5)
    turned = conjugate_trajectory(pair, random_unitary(np.random.default_rng(53), 4))
    speeds_at(turned, times)
    assert calls == [(50, 4, 4)]


def test_built_in_models_skip_the_dense_adapter(monkeypatch):
    calls = Counter()
    for module, name in ((linalg, "hermitian_stack"), (speed, "rho_dot")):

        def counted(*args, original=getattr(module, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    times = np.linspace(0.0, 20.0, 50)
    for key, bath in MODEL_CASES:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        for metric in MetricKind:
            speeds_at(traj, times, metric)
            speed_at(traj, 2.5, metric)
    assert calls == {}
    # a dense trajectory is checked once and differentiated once
    pair = trajectory_from_key("open-2q-aligned", alpha=0.7, Gamma_over_gamma0=0.5)
    speeds_at(conjugate_trajectory(pair, random_unitary(np.random.default_rng(53), 4)), times)
    assert calls == {"hermitian_stack": 1, "rho_dot": 1}


@pytest.mark.parametrize("dim", [2, 4])
def test_empty_stack_is_an_empty_batch(dim):
    assert kernel_speeds(np.zeros((0, dim, dim)), np.zeros((0, dim, dim))).speeds.shape == (0,)


@pytest.mark.parametrize("points", [1, 5])
@pytest.mark.parametrize("power", [-1000, 1000])
def test_derivative_scale_is_exact(points, power):
    # states with blocks of one, two and three indices; a power of two
    # scales every speed exactly, far beyond the range of the squares
    rng = np.random.default_rng(59)
    rho = np.zeros((points, 6, 6), dtype=complex)
    drho = np.zeros_like(rho)
    for n in range(points):
        for span in (slice(0, 1), slice(1, 3), slice(3, 6)):
            size = span.stop - span.start
            rho[n, span, span] = random_block(rng, "generic", size)
            drho[n, span, span] = random_hermitian(rng, size)
        rho[n] /= np.trace(rho[n]).real
    for metric in MetricKind:
        base = kernel_speeds(rho, drho, metric).speeds
        scaled = kernel_speeds(rho, drho * 2.0**power, metric).speeds
        assert scaled.tobytes() == (base * 2.0**power).tobytes()
