"""The block formulas of the built-in models, their point path on Python
floats, and the factor oracle on their conjugated states.

The dense ``np.linalg.eigh`` kernel in util.py is the oracle.
"""

import dataclasses
import importlib
import itertools
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevspeed import linalg, models, speed
from qevspeed.analysis import memory_boundaries
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    amplitude_factor,
    amplitude_factor_dot,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_complement,
    trajectory_from_key,
)
from qevspeed.speed import Trajectory, speed_at, speeds_at
from util import (
    FactorTrajectory,
    always_scaled_speeds,
    conjugate_trajectory,
    dense_kernel_speeds,
    factor_speeds,
    model_factor,
    on_libm,
    random_unitary,
)

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


def random_block(rng, kind: str, size: int) -> np.ndarray:
    """A factor block: zero, a multiple of a unitary (a degenerate state), one
    column (rank one) or the Cholesky factor of a state with eigenvalues of
    at least 0.1 (generic)."""
    if kind == "zero":
        return np.zeros((size, size), dtype=complex)
    if kind == "degenerate":
        return rng.uniform(0.3, 1.0) * random_unitary(rng, size)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if kind == "rank1":
        return m * (np.arange(size) == 0)
    return np.linalg.cholesky(m @ m.conj().T + 0.1 * np.eye(size))


@st.composite
def block_diagonal_stacks(draw):
    """Stacks of block-diagonal factors with their derivatives, under a
    permutation of the indices: generic, degenerate and zero blocks of
    sizes 1 to 3, or a pure state (one rank-one block among zero blocks),
    whose one column moves. Zero blocks either stay at rest or move, a rank
    increase; returns their moving part too."""
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
    factor = np.zeros((points, dim, dim), dtype=complex)
    move, leak = np.zeros_like(factor), np.zeros_like(factor)
    for n in range(points):
        start = 0
        for kind, size in zip(kinds, sizes):
            span = slice(start, start + size)
            factor[n, span, span] = random_block(rng, kind, size)
            if kind != "zero" or leaking:
                moving = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                move[n, span, span] = moving * (np.arange(size) == 0) if kind == "rank1" else moving
            if kind == "zero":
                leak[n, span, span] = move[n, span, span]
            start += size
        factor[n] /= np.linalg.norm(factor[n])
    index = np.array(order)
    return tuple(x[:, index][:, :, index] for x in (factor, move, leak))


@settings(max_examples=300, deadline=None)
@given(block_diagonal_stacks(), st.sampled_from(list(MetricKind)))
def test_block_kernel_matches_the_dense_kernel(stack, metric):
    """The factor oracle's sum is the kernel sum on A A^dagger, plus 4 |A'|^2
    of the zero blocks that move (a rank increase), which the states cannot
    carry: their derivative is 0 there."""
    factor, move, leak = stack
    traj = FactorTrajectory(lambda t: (factor, move), dim=factor.shape[-1])
    got = factor_speeds(traj, np.arange(len(factor), dtype=float), metric)
    rho, drho = traj.state_at(np.zeros(len(factor))), traj.derivative_at(np.zeros(len(factor)))
    want = np.sqrt(dense_kernel_speeds(rho, drho, metric) ** 2 + (np.abs(leak) ** 2).sum(axis=(1, 2)))
    for speed, expected, scale in zip(got, want, np.abs(move).max(axis=(1, 2))):
        assert speed == pytest.approx(expected, rel=1e-12, abs=1e-13 * scale)


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_speed_at_is_the_batch_to_the_last_bit(monkeypatch, key, bath, metric):
    """One expression on floats and arrays: with the batch on libm's
    functions, as the point path is, the two agree to the last bit."""
    on_libm(monkeypatch, models)
    rng = np.random.default_rng(47)
    times = np.concatenate([[0.0, 1e-6, 1e-3], rng.uniform(0.0, 45.0, 40)])
    for alpha in (0.0, *rng.uniform(0.05, 0.99, 2), 1.0):
        traj = trajectory_from_key(key, alpha=float(alpha), omega=1.7, **bath)
        batch = speeds_at(traj, times, metric)
        one = np.array([speed_at(traj, float(t), metric) for t in times])
        assert one.tobytes() == batch.tobytes()


@pytest.mark.parametrize("key", [key for key in MODEL_KEYS if key.startswith("closed")])
def test_closed_blocks_on_floats_and_arrays_agree_to_the_last_bit(monkeypatch, key):
    on_libm(monkeypatch, models)
    times = np.concatenate([[0.0, 1e-6], np.random.default_rng(61).uniform(0.0, 50.0, 30)])
    for alpha in (0.0, 0.3, 1.0):
        for omega in (0.7, 1e300):
            blocks = trajectory_from_key(key, alpha=alpha, omega=omega).blocks
            batch = blocks(times)
            for i, t in enumerate(times):
                one = blocks(float(t))
                # the anti pair's ray carries its vector (alpha, beta) as a fourth item
                for (indices, *entries), (same, *columns) in zip(one, batch):
                    assert indices == same
                    for x, column in zip(itertools.chain(*entries), itertools.chain(*columns)):
                        assert type(x) is float
                        assert x.hex() == float(np.broadcast_to(column, times.shape)[i]).hex()
                (pair_move,) = [block[2] for block in one if len(block[0]) == 2]
                assert pair_move[0] == pair_move[1] == 0.0
            (pair_moves,) = [block[2] for block in batch if len(block[0]) == 2]
            assert all(np.all(np.asarray(x) == 0.0) for x in pair_moves[:2])


@pytest.mark.parametrize("omega", [0.3, 1.0, 3.0, 7.1e299, 8.9e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize("key, turns", [("closed-1q", 1.0), ("closed-2q-aligned", 2.0)])
def test_the_phase_keeps_its_bits_up_to_its_overflow(monkeypatch, key, turns, omega):
    """The blocks state the coherence at phase 0, and the dense states turn
    it and its move by exp(-i phase), phase = turns (omega t). At the last
    time whose phase is finite, also where turns omega overflows, the dense
    coherence and its move have that phase's bits; the next float takes the
    same phase, and floats and arrays agree at both. Where every time has
    a finite phase, the last is the largest float, and no time follows it."""
    on_libm(monkeypatch, models)

    def phase(t):
        return turns * (omega * t)

    last = min(sys.float_info.max / turns / omega, sys.float_info.max)
    while phase(last) == math.inf:
        last = math.nextafter(last, 0.0)
    while last < sys.float_info.max and phase(math.nextafter(last, math.inf)) < math.inf:
        last = math.nextafter(last, math.inf)
    times = [t for t in (last, math.nextafter(last, math.inf)) if t < math.inf]
    traj = trajectory_from_key(key, alpha=0.6, omega=omega)
    ab = 0.6 * math.sqrt(1.0 - 0.6 * 0.6)
    turn = -turns * (omega * ab)
    cos, sin = math.cos(phase(last)), math.sin(phase(last))
    wants = complex(ab * cos, -(ab * sin)), complex(turn * sin, turn * cos)
    j = traj.dim - 1  # the pair's second index: (0, 1) for one spin, (0, 3) for the aligned pair
    batches = traj.state_at(np.array(times)), traj.derivative_at(np.array(times))
    for i, t in enumerate(times):
        for dense, batch, want in zip((traj.state_at(t), traj.derivative_at(t)), batches, wants):
            assert np.isfinite(dense).all() and dense[0, j] == want and dense[j, 0] == want.conjugate()
            assert dense.tobytes() == batch[i].tobytes()


@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_blocks_state_the_root_of_their_determinant(key, bath):
    """Every block's last state entry s has s^2 = p (a ray, on one index or,
    for the anti pair, along (alpha, beta)) or s^2 = ac - |w|^2 (a pair),
    and its last derivative entry is ds/dt."""
    blocks = trajectory_from_key(key, alpha=0.7, omega=1.3, **bath).blocks
    times = np.concatenate([[0.0, 1e-3], np.linspace(0.1, 45.0, 60)])
    for _, state, *_ in blocks(times):
        if len(state) == 2:
            det = state[0]
        else:
            a, c, wr, wi = state[:4]
            det = a * c - wr * wr - wi * wi
        np.testing.assert_allclose(det, state[-1] * state[-1], rtol=0.0, atol=1e-15)
    h, inner = 1e-6, times[2:]
    for block, up, down in zip(blocks(inner), blocks(inner + h), blocks(inner - h)):
        np.testing.assert_allclose(block[2][-1], (up[1][-1] - down[1][-1]) / (2.0 * h), rtol=1e-6, atol=1e-8)


TAU_1 = memory_boundaries(OpenSystemParams(Gamma=0.1), 1)[0][0]


@pytest.mark.parametrize(
    "key,alpha,ratio,t",
    [
        ("open-1q", 1.0, 0.1, TAU_1),
        ("open-1q", 0.6, 0.1, TAU_1),
        ("open-2q-aligned", 0.7, 0.1, TAU_1),
        ("open-1q", 1.0, 10.0, 27.0),
        ("open-1q", 1.0, 10.0, 40.0),
        ("open-2q-aligned", 1.0, 20.0, 13.86),
        ("open-2q-aligned", 1.0, 20.0, 15.76),
    ],
)
def test_boundary_speeds_match_the_closed_forms(key, alpha, ratio, t):
    """Where an eigenvalue touches 0 (tau_1) or falls below 1e-12 (the tails
    at Gamma/gamma0 = 10 and 20), the SLD speed is the closed form's. A
    kernel sum over eigenvalues drops those terms there."""
    params = OpenSystemParams(alpha=alpha, Gamma=ratio)
    closed = (open_qubit_speed_analytic if key == "open-1q" else open_two_qubit_speed_analytic)(params, t)
    traj = trajectory_from_key(key, alpha=alpha, Gamma_over_gamma0=ratio)
    assert speed_at(traj, t) == pytest.approx(closed, rel=1e-13, abs=0.0)
    assert speeds_at(traj, [t])[0] == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_wy_takes_the_principal_root():
    """Past tau_1, G_t < 0 and so is open-1q's root s = alpha^2 G_t c_t: WY
    needs |s| to take the principal sqrt(rho). It equals the dense kernel
    sum away from tau_1 and is continuous through it, and through an exact
    zero of s, where the dense sum drops a term."""
    wy = MetricKind.WY
    traj = trajectory_from_key("open-1q", alpha=0.6, Gamma_over_gamma0=0.1)
    times = np.array([9.0, 10.0, 12.0, 20.0, TAU_1 - 1e-3, TAU_1 + 1e-3])
    want = dense_kernel_speeds(traj.state_at(times), traj.derivative_at(times), wy)
    np.testing.assert_allclose(speeds_at(traj, times, wy), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([speed_at(traj, float(t), wy) for t in times], want, rtol=1e-12, atol=0.0)
    zero = OpenSystemParams(Gamma=0.1691959798994975), 6.705124740062843
    assert amplitude_factor(*zero) == 0.0
    for ratio, t in ((0.1, TAU_1), (zero[0].Gamma, zero[1])):
        traj = trajectory_from_key("open-1q", alpha=0.6, Gamma_over_gamma0=ratio)
        at = speed_at(traj, t, wy)
        for side in (-1e-6, 1e-6):
            assert speed_at(traj, t + side, wy) == pytest.approx(at, rel=1e-6)


def count_calls(monkeypatch, *targets) -> Counter:
    """Calls of each (module, name) function by name, from now on."""
    calls = Counter()
    for module, name in targets:

        def counted(*args, original=getattr(module, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_speed_at_takes_the_float_path(monkeypatch):
    calls = count_calls(monkeypatch, (speed, "_batch_at"), (speed, "_block_speeds"))
    for key, bath in MODEL_CASES:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        for metric in MetricKind:
            for t in (0.0, 1e-3, 2.5):
                assert isinstance(speed_at(traj, t, metric), float)
    assert calls == {}
    # a family of one member takes the batch
    family = trajectory_from_key("open-2q-aligned", alpha=np.array([0.7]), Gamma_over_gamma0=0.5)
    speed_at(family, 2.5)
    assert calls == {"_batch_at": 1, "_block_speeds": 1}


# parameters of each shape a family can take; a 0-d array is one curve
ALPHAS = {"()": 0.6, "0-d": np.array(0.6), "(1,)": np.array([0.6]), "(3,)": np.array([0.2, 0.6, 0.9])}
ALPHAS["(2, 3)"] = np.array([[0.2, 0.6, 0.9], [0.0, 0.5, 1.0]])
RATIOS = {"()": 0.5, "0-d": np.array(0.5), "(1,)": np.array([0.5]), "(3,)": np.array([0.4, 2.0, 7.0])}
RATIOS["(2, 3)"] = np.array([[0.4, 2.0, 7.0], [0.1, 3.0, 10.0]])
FAMILY_CASES = [
    (key, alpha, bath)
    for key in MODEL_KEYS
    for alpha in ALPHAS
    for bath in ([None] if key.startswith("closed") else [*RATIOS, "markovian"])
]


@pytest.mark.parametrize("key,alpha,bath", FAMILY_CASES)
def test_a_trajectory_states_its_family_shape(monkeypatch, key, alpha, bath):
    """The stated shape is the broadcast shape of the parameters, () for a
    0-d one; the batch takes it, and ``speed_at`` takes the batch exactly
    when it is not ()."""
    kwargs = {"alpha": ALPHAS[alpha]}
    if bath == "markovian":
        kwargs["markovian_limit"] = True
    elif bath is not None:
        kwargs["Gamma_over_gamma0"] = RATIOS[bath]
    traj = trajectory_from_key(key, **kwargs)
    shape = np.broadcast_shapes(*(np.shape(value) for value in kwargs.values()))
    assert traj.shape == shape
    assert speeds_at(traj, 2.5).shape == shape
    times = np.linspace(0.5, 4.0, 4).reshape((4,) + (1,) * len(shape))
    for metric in MetricKind:
        assert speeds_at(traj, times, metric).shape == (4, *shape)
    calls = count_calls(monkeypatch, (speed, "_batch_at"))
    if math.prod(shape) == 1:
        assert isinstance(speed_at(traj, 2.5), float)
    else:
        with pytest.raises(ValueError, match="one point"):
            speed_at(traj, 2.5)
    assert calls == ({} if shape == () else {"_batch_at": 1})


# peaks at and beyond both ends of the clip, subnormal, normal and not finite
PEAKS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.75, 1.0, 2.0**1023, 1.7976931348623157e308, math.inf, math.nan]


def test_binary_scale_clips_floats_and_arrays_alike():
    """The float branch and the array branch give the same two factors, each
    a normal power of two, the one the inverse of the other."""
    shrink, grow = speed._binary_scale(np.array(PEAKS))
    for peak, want in zip(PEAKS, zip(shrink.tolist(), grow.tolist())):
        got = speed._binary_scale(peak)
        assert [type(x) for x in got] == [float, float]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert got[0] * got[1] == 1.0 and -1021 <= math.frexp(got[1])[1] - 1 <= 1022
    assert [speed._binary_scale(peak)[1] for peak in PEAKS[:6]] == [0.5, 2.0**-1021, 2.0**-1021, 2.0**-1021, 0.5, 1.0]
    assert speed._binary_scale(2.0**1023) == speed._binary_scale(1.7976931348623157e308) == (2.0**-1022, 2.0**1022)


# each model's parameters at and beyond the float range's edges: omega for
# the closed models, the width for the open ones (None is Markovian)
SCALE_ALPHAS = [0.0, 1e-160, 0.6, 1.0]
SCALE_BATHS = {
    "closed": [{"omega": omega} for omega in (1e-200, 1.0, 1e300, 1e308)],
    "open": [{"Gamma_over_gamma0": width} for width in (1e-30, 0.5, 2.0, 10.0, 1e6)] + [{"markovian_limit": True}],
}
SCALE_TIMES = [1e-300, 1e-8, 2.5, 50.0, 1400.0, 1e308]


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_on_demand_scale_keeps_every_bit(key):
    """F summed unscaled and kept inside ``FISHER_WINDOW`` gives the bits of
    the sum with every point's derivatives scaled (``always_scaled_speeds``):
    on the point path, on the batch and on a family of amplitudes, under
    both metrics, at parameters and times out to the float range's ends."""
    family = np.array(SCALE_ALPHAS)
    for bath in SCALE_BATHS[key.partition("-")[0]]:
        for metric in MetricKind:
            for alpha in SCALE_ALPHAS:
                traj = trajectory_from_key(key, alpha=alpha, **bath)
                want = [always_scaled_speeds(traj, t, metric).hex() for t in SCALE_TIMES]
                assert [speed_at(traj, t, metric).hex() for t in SCALE_TIMES] == want
                want = always_scaled_speeds(traj, np.array(SCALE_TIMES), metric).tolist()
                assert [x.hex() for x in speeds_at(traj, SCALE_TIMES, metric).tolist()] == [x.hex() for x in want]
            traj = trajectory_from_key(key, alpha=family, **bath)
            times = np.array(SCALE_TIMES)[:, None]
            want = always_scaled_speeds(traj, times, metric)
            assert speeds_at(traj, times, metric).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize(
    "key, bath, t, fallback",
    [
        ("closed-1q", {"omega": 1e308}, 2.5, True),  # F overflows
        ("closed-2q-aligned", {"omega": 1e308}, 2.5, True),
        ("open-1q", {"markovian_limit": True}, 1400.0, True),  # G_t near e^-700: F underflows
        ("open-2q-aligned", {"markovian_limit": True}, 1400.0, True),
        ("closed-2q-anti", {}, 2.5, True),  # F = 0, at rest
        ("open-2q-aligned", {"Gamma_over_gamma0": 0.5}, 2.5, False),
    ],
)
def test_only_points_outside_the_window_are_scaled(monkeypatch, key, bath, t, fallback):
    """``_binary_scale`` runs once per evaluation where F overflows,
    underflows or is 0, on the point path and on the batch, and never at an
    interior point; the point path returns a state at rest unscaled."""
    traj = trajectory_from_key(key, alpha=0.6, **bath)
    calls = count_calls(monkeypatch, (speed, "_binary_scale"))
    for metric in MetricKind:
        speed_at(traj, t, metric)
        speeds_at(traj, [t, t], metric)
    paths = 1 if key == "closed-2q-anti" else 2
    assert calls == ({"_binary_scale": paths * len(MetricKind)} if fallback else {})


@pytest.mark.parametrize(
    "key, alphas, bath",
    [
        ("closed-1q", [0.0, 1.0], {}),
        ("closed-2q-aligned", [0.0, 1.0], {}),
        ("closed-2q-anti", [0.0, 1e-160, 0.6, 1.0], {}),
        ("closed-2q-anti", [0.6], {"omega": 1e308}),
        ("open-1q", [0.0], {"Gamma_over_gamma0": 0.5}),
        ("open-1q", [0.0], {"markovian_limit": True}),
        ("open-2q-aligned", [0.0], {"Gamma_over_gamma0": 0.5}),
        ("open-2q-aligned", [0.0], {"Gamma_over_gamma0": 10.0}),
    ],
)
def test_states_at_rest_read_exactly_zero(monkeypatch, key, alphas, bath):
    """Every move of a state at rest is exactly 0, and so is its F: it reads
    +0.0 on both paths, and the point path takes no ``_binary_scale``."""
    for alpha in alphas:
        traj = trajectory_from_key(key, alpha=alpha, **bath)
        calls = count_calls(monkeypatch, (speed, "_binary_scale"))
        for metric in MetricKind:
            for t in (1e-300, 2.5, 45.0, 1400.0):
                assert speed_at(traj, t, metric).hex() == "0x0.0p+0"
        assert calls == {}
        for metric in MetricKind:
            assert speeds_at(traj, [1e-300, 2.5, 45.0, 1400.0], metric).tobytes() == bytes(32)


def rotating_pure_blocks(t):
    """The blocks of a pure state rotating at unit rate, |psi> = (cos, sin)
    at the angle t + 1 / (1 + exp(1000 t)), as one pair with root 0; the
    moves take the angle's rate as 1."""
    angle = t + 1.0 / (1.0 + np.exp(1000.0 * t))
    cos, sin = np.cos(angle), np.sin(angle)
    zero = 0.0 * angle
    state = (cos * cos, sin * sin, cos * sin, zero, zero)
    move = (-2.0 * cos * sin, 2.0 * cos * sin, cos * cos - sin * sin, zero, zero)
    return [((0, 1), state, move)]


@pytest.mark.parametrize("over", ["warn", "ignore", "raise"])
def test_a_factors_own_overflow_keeps_the_callers_setting(over):
    """A hand-written factor runs in its caller's floating-point state on
    every route of the oracle, and a hand-written block function on the
    point path: exp(1000 t) overflows to inf there, where it adds
    1 / (1 + inf) = 0 to the angle of a rotating pure state, and warns,
    passes silently or raises as set. The batch path holds its own scope,
    in which it passes silently."""

    def factor_at(t):
        angle = t + 1.0 / (1.0 + np.exp(1000.0 * t))
        cos, sin = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
        return np.concatenate([cos, sin], -2), np.concatenate([-sin, cos], -2)

    traj = FactorTrajectory(factor_at, dim=2)
    curve = Trajectory(dim=2, state_at=None, derivative_at=None, blocks=rotating_pure_blocks)
    for evaluate in (lambda: factor_speeds(traj, [1.0, 2.0]), lambda: factor_speeds(traj, 1.0),
                     lambda: speed_at(curve, 1.0)):
        with np.errstate(over=over):
            if over == "raise":
                with pytest.raises(FloatingPointError, match="overflow encountered in exp"):
                    evaluate()
            elif over == "warn":
                with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
                    assert np.all(evaluate() == pytest.approx(1.0, rel=1e-12))
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert np.all(evaluate() == pytest.approx(1.0, rel=1e-12))
    with np.errstate(over=over), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert speeds_at(curve, [1.0, 2.0]) == pytest.approx([1.0, 1.0], rel=1e-12)


def test_anti_pair_at_alpha_zero_still_moves():
    """The open anti pair at alpha 0 starts in |01>, which decays: not a state at rest."""
    traj = trajectory_from_key("open-2q-anti", alpha=0.0, Gamma_over_gamma0=0.5)
    for metric in MetricKind:
        assert speed_at(traj, 2.5, metric) == speeds_at(traj, [2.5], metric)[0] == pytest.approx(0.3204396, rel=1e-7)


# one-member families of alpha (every model) and of the width (the open ones), and parameters of shape ()
ONE_MEMBER_CASES = [
    (key, member)
    for key in MODEL_KEYS
    for member in (("alpha", "0-d") if key.startswith("closed") else ("alpha", "width", "0-d"))
]


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("key,member", ONE_MEMBER_CASES)
@pytest.mark.parametrize("t", [0.0, 2.5])
def test_speed_at_calls_the_block_function_once(key, member, t, metric):
    """A one-member family is one point of the batch and parameters of
    shape () take the float path; either way the trajectory's ``blocks`` at
    ``t`` are built once, t = 0 too, and the speed is the
    batch's to the last bit."""
    kwargs = {"alpha": np.array([0.7]) if member == "alpha" else np.array(0.7)}
    if not key.startswith("closed"):
        kwargs["Gamma_over_gamma0"] = np.array([0.5]) if member == "width" else 0.5
    traj = trajectory_from_key(key, **kwargs)
    assert traj.shape == (() if member == "0-d" else (1,))
    want = speeds_at(traj, t, metric).item()
    calls = []
    counted = dataclasses.replace(traj, blocks=lambda times: calls.append(times) or traj.blocks(times))
    assert speed_at(counted, t, metric).hex() == want.hex()
    assert calls == [t]


class NoNumpy:
    """Stands in for the ``np`` name of a module: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"the point path called numpy ({name})")


def test_point_path_calls_no_numpy(monkeypatch):
    """With scalar parameters, ``speed_at`` runs from the block function to
    the speed on Python floats: every branch of G_t (Gamma/gamma0 = 10 at
    t = 40 is past the hyperbolic split, t = 1e-3 takes the series), both
    metrics, t = 0 and the points outside ``FISHER_WINDOW`` (t = 1400,
    omega = 1e308), which are scaled, give their bits with numpy gone from
    ``models`` and ``speed``."""
    wide = [(key, {"Gamma_over_gamma0": 10.0}) for key in MODEL_KEYS if key.startswith("open")]
    fast = [(key, {"omega": 1e308}) for key in MODEL_KEYS if key.startswith("closed")]
    points = []
    for key, bath in MODEL_CASES + wide + fast:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        for metric in MetricKind:
            for t in (0.0, 1e-3, 2.5, 40.0, 1400.0):
                points.append((traj, t, metric, speed_at(traj, t, metric).hex()))
    for module in (models, speed):
        monkeypatch.setattr(module, "np", NoNumpy())
    for traj, t, metric, want in points:
        assert speed_at(traj, t, metric).hex() == want


@pytest.mark.parametrize("Gamma", [0.4, 2.0, 7.0, math.inf])
def test_zero_d_time_takes_the_float_branch(monkeypatch, Gamma):
    """A 0-d time (``speeds_at`` makes one of a scalar time) gives Python
    floats with the bits of a float time, on every branch (t = 40 at
    Gamma/gamma0 = 7 is past the hyperbolic split); so a family at one time
    never takes the masked array path."""
    for t in (0.0, 1e-3, 2.5, 40.0):
        want = [x.hex() for x in models._amplitudes(t, Gamma)]
        for args in ((np.asarray(t), Gamma), (np.asarray(t), np.asarray(Gamma))):
            got = models._amplitudes(*args)
            assert [type(x) for x in got] == [float] * 3
            assert [x.hex() for x in got] == want
    bath = {"markovian_limit": True} if Gamma == math.inf else {"Gamma_over_gamma0": Gamma}
    family = trajectory_from_key("open-2q-aligned", alpha=np.linspace(0.1, 0.9, 5), **bath)
    calls = count_calls(monkeypatch, (models, "_check_time"))
    assert speeds_at(family, 4.4).shape == (5,)
    assert calls == {}


def test_a_batch_checks_its_times_once(monkeypatch):
    """``speeds_at`` checks its times, and a width family's block function
    takes them unchecked, at a time array and at a 0-d time; ``state_at``
    checks them once in ``_scatter``."""
    family = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=np.array([0.4, 2.0, 7.0, 1e6]))
    calls = count_calls(monkeypatch, (models, "_check_time"))
    for times in (np.array([[0.5], [40.0]]), np.asarray(4.4), 4.4):
        for metric in MetricKind:
            assert np.isfinite(speeds_at(family, times, metric)).all()
    assert calls == {}
    family.state_at(np.array([[0.5], [40.0]]))
    assert calls == {"_check_time": 1}


# the tau_n (n <= 6) of 200 widths in [0.01, 1.99] where the float G_t is
# exactly 0.0: 68 of the 1,200 on x86-64 Linux, some past t = 50
EXACT_ZEROS = [
    (width, tau)
    for width in np.linspace(0.01, 1.99, 200).tolist()
    for tau, _ in memory_boundaries(OpenSystemParams(Gamma=width), 6)
    if amplitude_factor(OpenSystemParams(Gamma=width), tau) == 0.0
]


def test_anti_pair_speed_at_an_exact_zero_of_the_amplitude():
    """Where the float G_t is exactly 0, the anti pair's ray still carries
    4 G'_t^2, so both metrics read |G'_t| / c_t on the point and batch paths."""
    params, t = OpenSystemParams(alpha=0.6, Gamma=0.1691959798994975), 6.705124740062843
    assert amplitude_factor(params, t) == 0.0
    closed = abs(amplitude_factor_dot(params, t)) / math.sqrt(population_complement(params, t))
    assert closed == pytest.approx(0.164942, abs=1e-6)
    traj = trajectory_from_key("open-2q-anti", alpha=0.6, Gamma_over_gamma0=params.Gamma)
    assert [speed_at(traj, t, metric) for metric in MetricKind] == pytest.approx([closed, closed], rel=1e-13)
    assert EXACT_ZEROS
    for width, tau in EXACT_ZEROS:
        params = OpenSystemParams(Gamma=width)
        closed = abs(amplitude_factor_dot(params, tau)) / math.sqrt(population_complement(params, tau))
        traj = trajectory_from_key("open-2q-anti", alpha=0.6, Gamma_over_gamma0=width)
        for metric in MetricKind:
            assert speed_at(traj, tau, metric) == pytest.approx(closed, rel=1e-13, abs=0.0)
            assert speeds_at(traj, [tau], metric)[0] == pytest.approx(closed, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("width", [0.1, 0.5, 1.9, 2.0, 10.0])
def test_anti_pair_speed_does_not_depend_on_alpha(width):
    """The anti pair's vector (alpha, beta) is constant, so its speed is
    |G'_t| / c_t at any alpha: bit-identical over a family of amplitudes,
    and that of open-1q at alpha = 1, whose speedup ends ``regions`` reports."""
    family = trajectory_from_key("open-2q-anti", alpha=np.array([0.0, 0.3, 0.6, 1.0]), Gamma_over_gamma0=width)
    qubit = trajectory_from_key("open-1q", alpha=1.0, Gamma_over_gamma0=width)
    one = trajectory_from_key("open-2q-anti", alpha=0.6, Gamma_over_gamma0=width)
    for metric in MetricKind:
        speeds = speeds_at(family, np.linspace(1.0, 45.0, 2000)[:, None], metric)
        assert all(column.tobytes() == speeds[:, 0].tobytes() for column in speeds.T)
        times = np.linspace(1e-3, 45.0, 2000)
        want = speeds_at(qubit, times, metric)
        got = speeds_at(family, times[:, None], metric)
        np.testing.assert_allclose(got, np.broadcast_to(want[:, None], got.shape), rtol=1e-14, atol=0.0)
        points = [speed_at(one, t, metric) for t in times[::50].tolist()]
        np.testing.assert_allclose(points, want[::50], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_results_take_the_shape_of_the_times(key, bath, shape):
    # the anti pair's blocks are Python floats at any time, for a scalar alpha
    traj = trajectory_from_key(key, alpha=0.7, **bath)
    times = np.linspace(0.5, 3.0, math.prod(shape)).reshape(shape)
    assert traj.state_at(times).shape == shape + (traj.dim, traj.dim)
    assert traj.derivative_at(times).shape == shape + (traj.dim, traj.dim)
    for metric in MetricKind:
        assert speeds_at(traj, times, metric).shape == shape


@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_only_a_turning_coherence_calls_the_phase(monkeypatch, key, bath):
    """The blocks state every coherence at phase 0, so neither speed path
    calls cos or sin (numpy's over a batch, libm's at a point) for it, on
    one curve or a family: only an oscillatory G_t calls each, once per
    evaluation. The dense states of the closed one-spin and aligned models
    call each once more per batch, for the phase; the anti pair's and the
    other open models' never do."""
    calls = count_calls(monkeypatch, *((module, name) for module in (math, np) for name in ("cos", "sin")))
    oscillatory = bath.get("Gamma_over_gamma0", 2.0) < 2.0
    turning = key in ("closed-1q", "closed-2q-aligned")
    for alpha in (0.7, np.array([0.7])):
        traj = trajectory_from_key(key, alpha=alpha, omega=1.3, **bath)
        calls.clear()
        for metric in MetricKind:
            speeds_at(traj, np.linspace(0.1, 20.0, 50), metric)
            speed_at(traj, 2.5, metric)
        evaluations = 2 * len(MetricKind) * oscillatory
        assert calls == ({"cos": evaluations, "sin": evaluations} if evaluations else {})
        calls.clear()
        traj.state_at(np.linspace(0.1, 20.0, 50))
        traj.derivative_at(2.5)
        batches = 2 * (turning + oscillatory)
        assert calls == ({"cos": batches, "sin": batches} if batches else {})


def test_the_batch_calls_libm_a_fixed_number_of_times(monkeypatch):
    """``speeds_at`` over 1,000 times calls the ``math`` functions behind
    G_t as often as over 10 times: on every model and branch
    under both metrics, and on a family of widths across the branches. So
    does ``speedup_equation``. The package is imported afresh with the
    counters in place, so they count its calls however it holds these
    functions; they see the point path's."""
    names = ("exp", "cos", "sin", "cosh", "sinh", "tan", "tanh")
    calls = count_calls(monkeypatch, *((math, name) for name in names))
    for name in [name for name in sys.modules if name.partition(".")[0] == "qevspeed"]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("qevspeed")

    def count(run, *args) -> dict:
        calls.clear()
        run(*args)
        return dict(calls)

    def grid(n):  # a column, to broadcast against a family's widths
        return np.linspace(0.0, 45.0, n)[:, None]

    family = ("open-2q-aligned", {"Gamma_over_gamma0": np.array([0.4, 2.0, 7.0, 20.0])})
    for key, bath in MODEL_CASES + [family]:
        traj = fresh.trajectory_from_key(key, alpha=0.7, omega=1.3, **bath)
        for metric in fresh.MetricKind:
            few, many = (count(fresh.speeds_at, traj, grid(n), metric) for n in (10, 1000))
            assert few == many
    params = fresh.OpenSystemParams(Gamma=0.4)
    few, many = (count(fresh.speedup_equation, params, np.linspace(0.1, 50.0, n)) for n in (10, 1000))
    assert few == many
    traj = fresh.trajectory_from_key("open-1q", alpha=0.7, Gamma_over_gamma0=0.4)
    assert count(fresh.speed_at, traj, 2.5) == {"exp": 1, "sin": 1, "cos": 1}
    assert count(fresh.speedup_equation, params, 2.5) == {"tan": 1, "tanh": 1}


# ROADMAP item 2's widths and times, and a dense time grid
ULP_WIDTHS = [1e-12, 1e-6, 0.01, 0.1, 0.5, 1.9, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 2.1, 10.0, 20.0, 1e6, 1e17, math.inf]
ULP_TIMES = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.3, 1.0, 3.0, 8.0, 20.0, 49.0], np.linspace(1e-12, 50.0, 8001)])
# numpy's SIMD exp, expm1, sin, cos, sinh and cosh differ from libm in the
# last bits for some arguments; the largest difference measured on this grid
# was 4 ulp for G_t and G'_t (AVX-512, numpy 2.4) and 0 for the phase. 1 - G_t
# sums terms up to about 8 times itself just past the series branch (t = 1/4),
# so it differs by up to 16 ulp there, and its bound is twice that.
ULP_BOUND = 8
LOST_ULP_BOUND = 32


def test_numpy_amplitudes_are_within_ulps_of_libm(monkeypatch):
    """The batch's G_t and G'_t, on numpy's ufuncs, and the closed models'
    dense states, which carry the phase, stay within ``ULP_BOUND`` ulp of
    the same expressions on libm's functions (the point path's), at every
    width and time, and 1 - G_t within ``LOST_ULP_BOUND``."""

    def numpy_and_libm(run):
        with monkeypatch.context() as patch:
            on_libm(patch, models)
            oracle = run()
        return zip(run(), oracle)

    for width in ULP_WIDTHS:
        for bound, x, y in zip((ULP_BOUND, ULP_BOUND, LOST_ULP_BOUND), *zip(*numpy_and_libm(lambda: models._amplitudes(ULP_TIMES, width)))):
            np.testing.assert_array_max_ulp(x, y, maxulp=bound)
    for key in ("closed-1q", "closed-2q-aligned"):
        traj = trajectory_from_key(key, alpha=0.3, omega=1.3)
        for x, y in numpy_and_libm(lambda: (traj.state_at(ULP_TIMES), traj.derivative_at(ULP_TIMES))):
            np.testing.assert_array_max_ulp(x.real, y.real, maxulp=ULP_BOUND)
            np.testing.assert_array_max_ulp(x.imag, y.imag, maxulp=ULP_BOUND)


@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_speed_at_takes_any_number(key, bath):
    traj = trajectory_from_key(key, alpha=0.7, **bath)
    for metric in MetricKind:
        want = speed_at(traj, 2.0, metric).hex()
        assert speed_at(traj, 2, metric).hex() == want
        assert speed_at(traj, np.float64(2.0), metric).hex() == want
        assert speed_at(traj, np.array(2.0), metric).hex() == want


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, 50.5, 1e3, math.inf])
def test_speed_at_checks_the_range_as_the_batch(monkeypatch, t):
    """Every model is defined for t >= 0: a finite time evaluates to the
    batch's bits (on the same libm), and a negative, NaN or infinite one
    raises the batch's error on the point path."""
    on_libm(monkeypatch, models)
    for traj in (trajectory_from_key("closed-1q"), trajectory_from_key("open-1q", markovian_limit=True)):
        if 0.0 <= t < math.inf:
            assert speed_at(traj, t).hex() == speeds_at(traj, t).item().hex()
            continue
        with pytest.raises(ValueError) as batch:
            speeds_at(traj, t)
        with pytest.raises(ValueError) as one:
            speed_at(traj, t)
        assert str(one.value) == str(batch.value) == f"t = {t} outside trajectory range [0, inf)"


@pytest.mark.parametrize("key,bath", MODEL_CASES)
def test_dense_states_check_the_range(key, bath):
    """``state_at`` and ``derivative_at`` raise the trajectories' error for a
    negative, NaN or infinite time, as a float and in an array, on every
    model: a width that binds its branch unchecked among them."""
    traj = trajectory_from_key(key, alpha=0.6, **bath)
    for t in (-1.0, math.nan, math.inf):
        for times in (t, np.array([0.5, t])):
            for dense in (traj.state_at, traj.derivative_at):
                with pytest.raises(ValueError, match=f"^t = {t} outside trajectory range \\[0, inf\\)$"):
                    dense(times)


def test_a_model_takes_no_end_time():
    with pytest.raises(TypeError, match="horizon"):
        trajectory_from_key("open-1q", Gamma_over_gamma0=0.5, horizon=50.0)


def test_built_in_models_run_no_eigensolver(monkeypatch):
    """No built-in model calls LAPACK's eigensolvers or its singular value
    decomposition, on either path and as a family."""
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(matrices, *args, **kwargs):
            calls.append((name, np.shape(matrices)))
            return solver(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    for name in ("eigh", "eigvalsh", "svd"):
        counted(name)
    times = np.linspace(0.0, 20.0, 50)
    for key, bath in MODEL_CASES:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        for metric in MetricKind:
            speeds_at(traj, times, metric)
            speed_at(traj, 2.5, metric)
            family = trajectory_from_key(key, alpha=np.array([0.3, 0.7]), **bath)
            speeds_at(family, 2.5, metric)
            speeds_at(family, times[:, None], metric)
    assert calls == []


def test_dense_qubit_matches_the_closed_form():
    """A conjugated open-1q is a factor trajectory, whose oracle keeps the term
    of an eigenvalue that touches zero: it reads the closed-form SLD speed to
    1e-10 over the whole grid, tau_n and the late tails included."""
    rng = np.random.default_rng(67)
    times = np.linspace(0.01, 40.0, 400)
    for alpha in (0.3, 0.6, 1.0):
        for ratio in (0.1, 0.5, 1.9, 3.0, 10.0):
            params = OpenSystemParams(alpha=alpha, Gamma=ratio)
            traj = trajectory_from_key("open-1q", alpha=alpha, Gamma_over_gamma0=ratio)
            turned = conjugate_trajectory(traj, random_unitary(rng, 2))
            closed = [open_qubit_speed_analytic(params, float(t)) for t in times]
            np.testing.assert_allclose(factor_speeds(turned, times), closed, rtol=1e-10, atol=0.0)


def test_built_in_models_skip_the_dense_adapter(monkeypatch):
    """No built-in model takes ``linalg.svd_stack``, on either path and as a
    family; the factor oracle takes it once per batch and once per point."""
    calls = count_calls(monkeypatch, (linalg, "svd_stack"))
    times = np.linspace(0.0, 20.0, 50)
    for key, bath in MODEL_CASES:
        traj = trajectory_from_key(key, alpha=0.7, **bath)
        family = trajectory_from_key(key, alpha=np.array([0.3, 0.7]), **bath)
        for metric in MetricKind:
            speeds_at(traj, times, metric)
            speed_at(traj, 2.5, metric)
            speeds_at(family, times[:, None], metric)
    assert calls == {}
    pair = trajectory_from_key("open-2q-aligned", alpha=0.7, Gamma_over_gamma0=0.5)
    turned = conjugate_trajectory(pair, random_unitary(np.random.default_rng(53), 4))
    factor_speeds(turned, times)
    factor_speeds(turned, 2.5)
    assert calls == {"svd_stack": 2}


@pytest.mark.parametrize("dim", [2, 4])
def test_empty_stack_is_an_empty_batch(dim):
    """No times give an empty batch, of the oracle and of a hand-written
    block curve, whose block function is not called."""
    empty = FactorTrajectory(lambda t: (np.zeros(t.shape + (dim, dim)), np.zeros(t.shape + (dim, dim))), dim=dim)
    assert factor_speeds(empty, np.array([])).shape == (0,)
    rays = Trajectory(dim=dim, state_at=None, derivative_at=None, blocks=lambda t: pytest.fail("blocks called"))
    assert speeds_at(rays, np.array([])).shape == (0,)


def random_blocks(rng, points: int):
    """Blocks of a random state of dim 6, stacked over ``points``: a ray on
    one index, a pair, a ray along a unit vector over two indices and a ray
    on one more, with normal random moves."""
    p0, p3, p5 = rng.uniform(0.1, 1.0, (3, points))
    a, c = rng.uniform(0.5, 1.0, (2, points))
    wr, wi = rng.uniform(-0.3, 0.3, (2, points))
    total = p0 + a + c + p3 + p5
    p0, a, c, wr, wi, p3, p5 = (x / total for x in (p0, a, c, wr, wi, p3, p5))
    moves = rng.standard_normal((11, points))
    return [
        ((0,), (p0, np.sqrt(p0)), tuple(moves[0:2])),
        ((1, 2), (a, c, wr, wi, np.sqrt(a * c - wr * wr - wi * wi)), tuple(moves[2:7])),
        ((3, 4), (p3, np.sqrt(p3)), tuple(moves[7:9]), (0.6, 0.8)),
        ((5,), (p5, np.sqrt(p5)), tuple(moves[9:11])),
    ]


@pytest.mark.parametrize("points", [1, 5])
@pytest.mark.parametrize("power", [-1000, 1000])
def test_derivative_scale_is_exact(points, power):
    # hand-written blocks, rays and a pair; a power of two scales every
    # speed exactly, far beyond the range of the squares, on both paths
    blocks = random_blocks(np.random.default_rng(59), points)
    scaled = [(b[0], b[1], tuple(x * 2.0**power for x in b[2]), *b[3:]) for b in blocks]
    first = [(b[0], tuple(float(x[0]) for x in b[1]), tuple(float(x[0]) for x in b[2]), *b[3:]) for b in scaled]
    times = np.arange(1, points + 1, dtype=float)
    for metric in MetricKind:
        base = speeds_at(Trajectory(dim=6, state_at=None, derivative_at=None, blocks=lambda t: blocks), times, metric)
        grown = speeds_at(Trajectory(dim=6, state_at=None, derivative_at=None, blocks=lambda t: scaled), times, metric)
        assert grown.tobytes() == (base * 2.0**power).tobytes()
        one = Trajectory(dim=6, state_at=None, derivative_at=None, blocks=lambda t: first)
        assert speed_at(one, 1.0, metric) == base[0] * 2.0**power


TAUS = [tau for tau, _ in memory_boundaries(OpenSystemParams(Gamma=0.1), 3)]
# an exact zero of the float G_t, where the anti pair's root vanishes
G_ZERO = (0.1691959798994975, 6.705124740062843)
MOTIVATION = [  # where an eigenvalue adapter read 0.80x, 1e-32 and 1e-14
    ("open-1q", 0.6, 10.0, [30.0, 40.0, 50.0, 60.0, 70.0]),
    ("open-1q", 1.0, 0.1, TAUS),
    ("open-2q-aligned", 0.6, 10.0, [30.0]),
]
CONJUGATED = [
    (key, alpha, bath)
    for key in ("open-1q", "open-2q-aligned", "open-2q-anti")
    for alpha in (0.3, 0.6, 1.0)
    for bath in ({"Gamma_over_gamma0": 0.1}, {"Gamma_over_gamma0": 0.5}, {"Gamma_over_gamma0": 10.0}, {"markovian_limit": True})
]


def conjugated_errors(traj, times, rng):
    """The relative errors of a conjugated ``traj`` against its point path
    at ``times``, under both metrics, with the smallest ratio
    sigma_min / sigma_max of the factor at each time."""
    turned = conjugate_trajectory(traj, random_unitary(rng, traj.dim))
    factor_at = model_factor(turned)
    for t in times:
        sigma = np.linalg.svd(factor_at(np.asarray(t))[0], compute_uv=False)
        for metric in MetricKind:
            want = speed_at(traj, t, metric)
            yield abs(factor_speeds(turned, t, metric) - want) / want, sigma[-1] / sigma[0]


@pytest.mark.parametrize("key,alpha,bath", CONJUGATED)
def test_conjugated_models_match_their_point_path(key, alpha, bath):
    """A conjugated model is a factor trajectory: its oracle reads the model's own
    point path to 1e-13 where sigma_min >= 1e-8 sigma_max, and to 1e-10
    below that, where the touch rule takes over. The grid spans t in
    [1e-3, 40] with the first tau_n and tau_n' of the width."""
    rng = np.random.default_rng(83)
    traj = trajectory_from_key(key, alpha=alpha, **bath)
    times = list(np.geomspace(1e-3, 40.0, 21))
    if "Gamma_over_gamma0" in bath and bath["Gamma_over_gamma0"] < 2.0:
        boundaries = memory_boundaries(OpenSystemParams(Gamma=bath["Gamma_over_gamma0"]), 3)
        times += [float(t) for ends in boundaries for t in ends]
    for error, ratio in conjugated_errors(traj, times, rng):
        assert error <= (1e-13 if ratio >= 1e-8 else 1e-10)


@pytest.mark.parametrize(
    "key,alpha,ratio,times",
    MOTIVATION + [(key, 0.6, G_ZERO[0], [G_ZERO[1]]) for key in ("open-1q", "open-2q-aligned", "open-2q-anti")],
)
def test_conjugated_boundary_speeds(key, alpha, ratio, times):
    """Where an eigenvalue touches zero or falls to 1e-34 of the largest, the
    factor oracle keeps its term: conjugated, each model reads its point path
    to 1e-13 where sigma_min >= 1e-8 sigma_max and to 1e-10 below, over 20
    random unitaries."""
    rng = np.random.default_rng(89)
    traj = trajectory_from_key(key, alpha=alpha, Gamma_over_gamma0=ratio)
    for _ in range(20):
        for error, ratio in conjugated_errors(traj, times, rng):
            assert error <= (1e-13 if ratio >= 1e-8 else 1e-10)
