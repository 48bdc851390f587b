"""The batched evaluator: array-valued model states and the stacked kernel sum.

Every batched result is checked against the same evaluation done one point
at a time.
"""

import dataclasses
import functools
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import qevspeed.cli as cli
from qevspeed.errors import RankIncreaseError
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    amplitude_factor,
    amplitude_factor_dot,
    open_two_qubit_speed_analytic,
    population_factor,
    trajectory_from_key,
)
from qevspeed.speed import (
    DEFAULT_TIME_STEP,
    Trajectory,
    kernel_speeds,
    speed_at,
    speed_curve,
    speeds_at,
    speedup_measures,
)
from util import (
    conjugate_trajectory,
    leaking_trajectory,
    local_damping_evolve,
    open_model,
    random_unitary,
    rank_leaking_trajectory,
    speedup_measure,
    without_analytic_derivative,
)

SLD = MetricKind.SLD

# Width ratios covering every branch of the amplitude factor: oscillatory,
# critical (Gamma = 2 gamma0) and hyperbolic, plus the Markovian limit.
# At Gamma/gamma0 = 10, kappa t / 2 = 20 falls at t = 4.47: the grid below
# has times on both sides of the hyperbolic split.
BATHS = [
    {"Gamma_over_gamma0": 0.1},
    {"Gamma_over_gamma0": 2.0},
    {"Gamma_over_gamma0": 10.0},
    {"markovian_limit": True},
]
TIMES = np.array([0.0, 1e-4, 0.3, 1.7, 4.0, 4.4, 4.6, 9.0, 31.0, 49.0])


def model_cases():
    for key in MODEL_KEYS:
        for bath in [{}] if key.startswith("closed") else BATHS:
            yield key, bath


def scalar_speeds(traj: Trajectory, times, metric) -> np.ndarray:
    return np.array([speed_at(traj, float(t), metric) for t in times])


def assert_close(batched, scalar, rel=1e-12):
    """Equal to ``rel``, relative to the largest finite value; infinities
    must match exactly."""
    scale = np.max(np.abs(scalar), where=np.isfinite(scalar), initial=0.0)
    np.testing.assert_allclose(batched, scalar, rtol=rel, atol=rel * scale)


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("key,bath", list(model_cases()))
def test_batch_matches_scalar_fallback(key, bath, metric):
    traj = trajectory_from_key(key, alpha=0.8, **bath)
    result = speeds_at(traj, TIMES, metric)
    assert not result.failures
    assert_close(result.speeds, scalar_speeds(traj, TIMES, metric))


@pytest.mark.parametrize("bath", BATHS)
def test_amplitudes_match_per_element(bath):
    params = OpenSystemParams(
        alpha=0.5,
        Gamma=bath.get("Gamma_over_gamma0"),
        markovian_limit=bath.get("markovian_limit", False),
    )
    for func in (amplitude_factor, amplitude_factor_dot):
        batched = func(params, TIMES)
        assert np.array_equal(batched, [func(params, float(t)) for t in TIMES])


@pytest.mark.parametrize("kind", ["aligned", "anti"])
def test_pair_states_are_the_local_channel_to_the_last_bit(kind):
    params = OpenSystemParams(alpha=0.6, Gamma=0.3)
    vec = np.array([0.6, 0, 0, 0.8] if kind == "aligned" else [0, 0.6, 0.8, 0], dtype=complex)
    states = open_model(f"open-2q-{kind}", params).state_at(TIMES)
    for t, rho in zip(TIMES, states):
        channel = local_damping_evolve(np.outer(vec, vec.conj()), population_factor(params, t), 2)
        np.testing.assert_array_max_ulp(rho.view(float), channel.view(float), maxulp=1)


def test_pure_states_take_the_fubini_study_route():
    traj = trajectory_from_key("closed-2q-aligned", alpha=0.6, omega=1.3)
    result = speeds_at(traj, TIMES[TIMES < traj.horizon], SLD)
    # S = 2 omega alpha beta for the aligned pair
    np.testing.assert_allclose(result.speeds, 2 * 1.3 * 0.6 * 0.8, rtol=1e-12)


def test_zero_time_limits_and_clamp():
    finite = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=0.5)
    assert speeds_at(finite, [0.0, 0.0], SLD).speeds.tolist() == [finite.speed_at_zero] * 2
    markovian = trajectory_from_key("open-1q", alpha=0.6, markovian_limit=True)
    batched = speeds_at(markovian, [0.0, 1.0], SLD).speeds
    assert batched[0] == speed_at(markovian, 0.0) == math.inf
    assert batched[1] == speed_at(markovian, 1.0)


def test_rank_increase_fails_only_its_point():
    mixed = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    leak = np.zeros((4, 4), dtype=complex)
    leak[2, 3] = leak[3, 2] = 1e-3
    rho = np.stack([mixed, mixed, mixed])
    drho = np.stack([np.zeros((4, 4)), leak, np.diag([0.1, -0.1, 0, 0])])
    result = kernel_speeds(rho, drho, SLD, times=np.array([0.5, 1.0, 1.5]))
    assert list(result.failures) == [1]
    error = result.failures[1]
    assert isinstance(error, RankIncreaseError)
    assert (error.time, error.pair) == (1.0, (0, 1))  # eigenbasis indices, ascending
    assert math.isnan(result.speeds[1])
    assert result.speeds[0] == 0.0 and result.speeds[2] > 0.0

    with pytest.raises(RankIncreaseError, match="rank"):
        speed_at(leaking_trajectory(-math.inf, math.inf, horizon=10.0), 1.0, SLD)


@pytest.mark.parametrize("key", ["open-1q", "open-2q-aligned", "open-2q-anti"])
def test_parameter_arrays_broadcast_like_separate_trajectories(key):
    alphas = np.array([0.2, 0.55, 0.9])
    ratios = np.array([0.1, 2.0, 10.0, 0.7])
    family = trajectory_from_key(key, alpha=alphas[:, None], Gamma_over_gamma0=ratios)
    for t in (0.0, 0.8, 6.0):
        batched = speeds_at(family, t, SLD).speeds
        assert batched.shape == (3, 4)
        for i, alpha in enumerate(alphas):
            for j, ratio in enumerate(ratios):
                single = trajectory_from_key(key, alpha=alpha, Gamma_over_gamma0=ratio)
                assert batched[i, j] == pytest.approx(speed_at(single, t), rel=1e-12)


def test_closed_alpha_family():
    alphas = np.linspace(0.05, 0.95, 7)
    family = trajectory_from_key("closed-1q", alpha=alphas, omega=0.7)
    np.testing.assert_allclose(
        speeds_at(family, 2.0, SLD).speeds, 0.7 * alphas * np.sqrt(1 - alphas**2), rtol=1e-12
    )


def test_family_validation_reports_bad_elements():
    with pytest.raises(ValueError, match="alpha"):
        trajectory_from_key("open-1q", alpha=np.array([0.5, 1.5]), Gamma_over_gamma0=1.0)
    with pytest.raises(ValueError, match="Gamma"):
        trajectory_from_key("open-1q", alpha=0.5, Gamma_over_gamma0=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="one point"):
        speed_at(trajectory_from_key("closed-1q", alpha=np.array([0.2, 0.4])), 1.0)


def test_replaced_callables_are_the_ones_evaluated():
    base = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=3.0)
    other = trajectory_from_key("open-1q", alpha=0.9, Gamma_over_gamma0=0.4)
    swapped = dataclasses.replace(
        base, dim=2, state_at=other.state_at, derivative_at=other.derivative_at
    )
    times = np.linspace(0.1, 8.0, 11)
    assert_close(speeds_at(swapped, times, SLD).speeds, speeds_at(other, times, SLD).speeds)

    calls = []
    u = random_unitary(np.random.default_rng(5), 4)
    rotated = conjugate_trajectory(base, u)
    counted = dataclasses.replace(
        rotated, state_at=lambda t: calls.append(t) or rotated.state_at(t)
    )
    batched = speeds_at(counted, times, SLD).speeds
    assert len(calls) == 1 and np.array_equal(calls[0], times)
    assert_close(batched, speeds_at(base, times, SLD).speeds, rel=1e-10)

    # only derivative_at replaced, as without_analytic_derivative does
    numeric = without_analytic_derivative(base)
    doubled = dataclasses.replace(numeric, derivative_at=lambda t: 2.0 * numeric.derivative_at(t))
    assert_close(speeds_at(doubled, times, SLD).speeds, 2.0 * speeds_at(base, times, SLD).speeds, rel=1e-8)

    # both callables wrapped with functools.wraps, as bench/tracer.py wraps
    # them: the wrappers carry the model's blocks, evaluated in their place
    wrapped = []

    def traced(func):
        @functools.wraps(func)
        def wrapper(t):
            wrapped.append(t)
            return func(t)

        return wrapper

    for traj in (base, other):
        traced_traj = dataclasses.replace(traj, state_at=traced(traj.state_at), derivative_at=traced(traj.derivative_at))
        for metric in MetricKind:
            assert speeds_at(traced_traj, times, metric).speeds.tobytes() == speeds_at(traj, times, metric).speeds.tobytes()
            assert speed_at(traced_traj, 2.5, metric) == speed_at(traj, 2.5, metric)
    assert wrapped == []


def test_speed_curve_is_one_batch_with_neighbour_slopes():
    traj = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=0.3)
    grid = np.linspace(0.01, 12.0, 50)
    curve = speed_curve(traj, grid, SLD)
    assert_close(curve.speeds, scalar_speeds(traj, grid, SLD))
    assert curve.slopes[3] == pytest.approx(
        (curve.speeds[4] - curve.speeds[2]) / (grid[4] - grid[2]), rel=1e-14
    )
    assert not curve.failures


def test_stencil_slopes_match_speedup_measure():
    traj = trajectory_from_key("open-1q", alpha=0.8, Gamma_over_gamma0=0.2)
    xi = np.array([0.5, 3.0, 17.0])
    speeds, slopes, failures = speedup_measures(lambda t: speeds_at(traj, t, SLD), xi)
    assert not failures
    for i, x in enumerate(xi):
        assert speeds[i] == pytest.approx(speed_at(traj, x), rel=1e-12)
        assert slopes[i] == pytest.approx(
            speedup_measure(lambda t: speed_at(traj, t), x), rel=1e-6, abs=1e-9
        )
    assert DEFAULT_TIME_STEP * 17.0 == pytest.approx(1.7e-4)


def test_no_floating_point_exceptions():
    with np.errstate(all="raise"):
        for key, bath in model_cases():
            for horizon in (50.0, 700.0):
                traj = trajectory_from_key(key, alpha=0.7, horizon=horizon, **bath)
                times = np.concatenate([[0.0, 1e-8, 1e-4], np.linspace(0.01, traj.horizon, 301)])
                for metric in MetricKind:
                    assert not speeds_at(traj, times, metric).failures
                    speed_at(traj, 3.0, metric)
        for figure_id in cli.FIGURES:
            with redirect_stdout(io.StringIO()):
                assert cli.main(["figure", figure_id]) == 0


def test_figure_and_detect_annotate_failed_rows(monkeypatch):
    monkeypatch.setattr(cli, "trajectory_from_key", rank_leaking_trajectory)
    for argv, note, failed_row in (
        # the grid point t = 2.0000933 and its stencil fail
        (["figure", "fig3b", "--points", "16"], "t=2.00009333333", ["2.00009333333", "nan", "nan"]),
        (["detect", "--model", "closed-1q", "--sweep", "t:1:3:5"], "t=2", ["2", "nan", "nan", "nan"]),
    ):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        text = out.getvalue()
        assert f"# note: skipped {note}: derivative element" in text
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert [row for row in rows if "nan" in row] == [failed_row]


@pytest.mark.xfail(
    strict=True,
    reason="1 - P_t is formed by cancellation and eigh has ~1e-16 absolute error "
    "on the a^2 P_t (1 - P_t) eigenvalues; near t = 0 both move the speed "
    "by a relative 1e-7",
)
def test_two_qubit_speed_near_zero_matches_closed_form():
    params = OpenSystemParams(alpha=1.0 / math.sqrt(2.0), Gamma=0.1)
    traj = open_model("open-2q-aligned", params)
    closed = open_two_qubit_speed_analytic(params, 1e-4)
    assert closed == pytest.approx(0.223606052341, rel=1e-11)
    assert speed_at(traj, 1e-4) == pytest.approx(closed, rel=1e-9)
