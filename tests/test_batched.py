"""The batched evaluator: array-valued model states and the stacked kernel sum.

Every batched result is checked against the same evaluation done one point
at a time.
"""

import dataclasses
import functools
import io
import math
import sys
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

import qevspeed.cli as cli
import qevspeed.models as models
from qevspeed import linalg
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    _amplitudes,
    amplitude_factor,
    amplitude_factor_dot,
    open_two_qubit_speed_analytic,
    population_complement,
    population_factor,
    population_factor_dot,
    trajectory_from_key,
)
from qevspeed.speed import (
    DEFAULT_TIME_STEP,
    Trajectory,
    factor_trajectory,
    speed_at,
    speed_curve,
    speeds_at,
    speedup_measures,
    stencil_step,
)
from util import (
    InjectedFailure,
    conjugate_trajectory,
    fail_between,
    local_damping_evolve,
    model_factor,
    on_libm,
    open_model,
    random_unitary,
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
def test_amplitudes_match_per_element(monkeypatch, bath):
    """Each element of the batch is the batch of its one time; with the
    batch on libm's functions, the point path's, it is the call at that
    float."""
    params = OpenSystemParams(
        alpha=0.5,
        Gamma=bath.get("Gamma_over_gamma0"),
        markovian_limit=bath.get("markovian_limit", False),
    )
    for func in (amplitude_factor, amplitude_factor_dot):
        each = [func(params, TIMES[i : i + 1]) for i in range(TIMES.size)]
        assert func(params, TIMES).tobytes() == np.concatenate(each).tobytes()
    on_libm(monkeypatch, models)
    for func in (amplitude_factor, amplitude_factor_dot):
        batched = func(params, TIMES)
        assert np.array_equal(batched, [func(params, float(t)) for t in TIMES])


@pytest.mark.parametrize(
    "width",
    [0.1, 2, 10.0, np.float64(10.0), np.asarray(10.0), math.inf],
    ids=["0.1", "int-2", "10.0", "float64-10.0", "0-d-10.0", "inf"],
)
def test_one_width_is_the_per_element_path_to_the_last_bit(width):
    """One width takes its branch once, on Python floats, over the whole time
    array; an array of that width routes each element by mask. Both give
    the same bits, and the same error for a negative, NaN or infinite time."""
    xi = np.linspace(0.5, 30.0, 12)
    times = [
        TIMES,
        np.stack([xi, xi + stencil_step(xi), xi - stencil_step(xi)]),
        np.linspace(4.4, 4.55, 16),  # kappa t / 2 = 20 at t = 4.47 for Gamma/gamma0 = 10
        [0.0, 0.5, 4.46, 4.48, 20.0],
        np.array([]),
    ]
    for t in times:
        one, each = _amplitudes(t, width), _amplitudes(t, np.full(np.shape(t), width))
        for x, y in zip(one, each):
            assert x.shape == y.shape == np.shape(t) and x.tobytes() == y.tobytes()
    messages = []
    for t in ([1.0, -0.5, 2.0], [1.0, math.nan, 5.0, math.nan], [2.0, math.inf]):
        for w in (width, np.full(len(t), width)):
            with pytest.raises(ValueError) as error:
                _amplitudes(np.array(t), w)
            messages.append(str(error.value))
    assert messages == [f"t = {x} outside trajectory range [0, inf)" for x in ("-0.5", "nan", "inf") for _ in "ab"]


@pytest.mark.parametrize("kind", ["aligned", "anti"])
def test_pair_states_are_the_local_channel_to_the_last_bit(kind):
    params = OpenSystemParams(alpha=0.6, Gamma=0.3)
    vec = np.array([0.6, 0, 0, 0.8] if kind == "aligned" else [0, 0.6, 0.8, 0], dtype=complex)
    states = open_model(f"open-2q-{kind}", params).state_at(TIMES)
    for pop, rho in zip(population_factor(params, TIMES).tolist(), states):
        channel = local_damping_evolve(np.outer(vec, vec.conj()), pop, 2)
        np.testing.assert_array_max_ulp(rho.view(float), channel.view(float), maxulp=1)


@pytest.mark.parametrize("kind", ["aligned", "anti"])
def test_pair_families_are_the_local_channel_exactly(kind):
    """Each member of a family of amplitudes, on a grid through the zeros of
    G_t, has the local channel's values exactly, and the derivatives of the
    same model built alone: the anti pair's ray is multiplied out in the
    channel's order, and takes alpha's axes from its vector alone."""
    alphas = [0.0, 0.3, 0.6, 1.0]
    times = np.linspace(0.01, 45.0, 300)
    family = trajectory_from_key(f"open-2q-{kind}", alpha=np.array(alphas), Gamma_over_gamma0=0.3)
    states = family.state_at(times[:, None])
    assert states.shape == (300, 4, 4, 4)
    pops = population_factor(OpenSystemParams(Gamma=0.3), times).tolist()
    moves = family.derivative_at(times[:, None])
    for k, alpha in enumerate(alphas):
        beta = math.sqrt(1.0 - alpha * alpha)
        vec = np.array([alpha, 0, 0, beta] if kind == "aligned" else [0, alpha, beta, 0], dtype=complex)
        for pop, rho in zip(pops, states[:, k]):
            np.testing.assert_array_equal(rho, local_damping_evolve(np.outer(vec, vec.conj()), pop, 2))
        member = trajectory_from_key(f"open-2q-{kind}", alpha=alpha, Gamma_over_gamma0=0.3)
        np.testing.assert_array_equal(moves[:, k], member.derivative_at(times))


def test_pure_states_take_the_fubini_study_route():
    traj = trajectory_from_key("closed-2q-aligned", alpha=0.6, omega=1.3)
    result = speeds_at(traj, TIMES, SLD)
    # S = 2 omega alpha beta for the aligned pair
    np.testing.assert_allclose(result.speeds, 2 * 1.3 * 0.6 * 0.8, rtol=1e-12)


def test_zero_time_limits_and_clamp():
    finite = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=0.5)
    assert speeds_at(finite, [0.0, 0.0], SLD).speeds.tolist() == [finite.speed_at_zero] * 2
    markovian = trajectory_from_key("open-1q", alpha=0.6, markovian_limit=True)
    batched = speeds_at(markovian, [0.0, 1.0], SLD).speeds
    assert batched[0] == speed_at(markovian, 0.0) == math.inf
    assert batched[1] == speed_at(markovian, 1.0)


def test_rank_increase_is_a_touch_term_not_a_failure(monkeypatch):
    """A factor whose null space moves at one point (the state leaves its
    rank there) adds 4 |A'|^2 of that part, with no failure. No point of the
    package fails alone, so an injected failure shows that a failed point
    is nan alone, with its error, and that ``speed_at`` raises it."""
    mixed = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex) ** 0.5
    leak = np.zeros((4, 4), dtype=complex)
    leak[2, 3] = 1e-3
    factors = np.stack([mixed, mixed, mixed])
    moves = np.stack([np.zeros((4, 4)), leak, np.diag([0.1, -0.1, 0, 0])])
    traj = factor_trajectory(lambda t: (factors, moves), dim=4)
    result = speeds_at(traj, np.array([0.5, 1.0, 1.5]), SLD)
    assert not result.failures
    assert result.speeds[0] == 0.0 and result.speeds[1] == pytest.approx(1e-3, rel=1e-15) and result.speeds[2] > 0.0

    fail_between(monkeypatch, 0.9, 1.1)
    model = trajectory_from_key("open-1q", alpha=0.6, Gamma_over_gamma0=0.5)
    speeds, slopes, failures = speedup_measures(lambda t: speeds_at(model, t, SLD), [0.5, 1.0, 1.5])
    assert list(failures) == [1] and isinstance(failures[1], InjectedFailure)
    assert math.isnan(speeds[1]) and math.isnan(slopes[1])
    assert np.isfinite(speeds[[0, 2]]).all() and np.isfinite(slopes[[0, 2]]).all()
    family = trajectory_from_key("open-1q", alpha=np.array([0.6]), Gamma_over_gamma0=0.5)
    with pytest.raises(InjectedFailure, match="injected at t = 1"):
        speed_at(family, 1.0, SLD)


@pytest.mark.parametrize("key", ["open-1q", "open-2q-aligned", "open-2q-anti"])
def test_parameter_arrays_broadcast_like_separate_trajectories(key):
    alphas = np.array([0.2, 0.55, 0.9])
    ratios = np.array([0.1, 2.0, 10.0, 0.7])
    family = trajectory_from_key(key, alpha=alphas[:, None], Gamma_over_gamma0=ratios)
    # 4.4 and 4.6 straddle the hyperbolic split at Gamma/gamma0 = 10 (t = 4.47)
    for metric in MetricKind:
        for t in (0.0, 0.8, 4.4, 4.6, 6.0, 31.0):
            batched = speeds_at(family, t, metric).speeds
            assert batched.shape == (3, 4)
            for i, alpha in enumerate(alphas):
                for j, ratio in enumerate(ratios):
                    single = trajectory_from_key(key, alpha=alpha, Gamma_over_gamma0=ratio)
                    assert batched[i, j].hex() == speeds_at(single, np.array([t]), metric).speeds[0].hex()
        # a time-by-width grid: each width's column is its own curve
        grid = np.array([0.3, 4.4, 4.6, 31.0])[:, None]
        columns = speeds_at(trajectory_from_key(key, alpha=0.55, Gamma_over_gamma0=ratios), grid, metric).speeds
        for j, ratio in enumerate(ratios):
            single = trajectory_from_key(key, alpha=0.55, Gamma_over_gamma0=ratio)
            assert columns[:, j].tobytes() == speeds_at(single, grid[:, 0], metric).speeds.tobytes()


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
    """A trajectory's ``blocks`` is what the evaluators call: a replaced
    block function is the one evaluated, callables replaced under a kept
    one are not, and a trajectory without one is refused at once."""
    base = trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=3.0)
    other = trajectory_from_key("open-1q", alpha=0.9, Gamma_over_gamma0=0.4)
    times = np.linspace(0.1, 8.0, 11)
    want = speeds_at(other, times, SLD).speeds
    replaced = dataclasses.replace(base, blocks=other.blocks)
    assert speeds_at(replaced, times, SLD).speeds.tobytes() == want.tobytes()
    assert speed_at(replaced, 2.5) == speed_at(other, 2.5)
    kept = dataclasses.replace(base, dim=2, state_at=other.state_at, derivative_at=other.derivative_at)
    assert speeds_at(kept, times, SLD).speeds.tobytes() == speeds_at(base, times, SLD).speeds.tobytes()
    with pytest.raises(ValueError, match="factor_trajectory"):
        dataclasses.replace(kept, blocks=None)

    calls = []
    u = random_unitary(np.random.default_rng(5), 4)
    rotated = conjugate_trajectory(base, u)
    counted = dataclasses.replace(rotated, blocks=lambda t: calls.append(t) or rotated.blocks(t))
    batched = speeds_at(counted, times, SLD).speeds
    assert len(calls) == 1 and np.array_equal(calls[0], times)
    assert_close(batched, speeds_at(base, times, SLD).speeds, rel=1e-10)

    # a factor whose derivative doubles doubles every speed, exactly
    factor_at = model_factor(base)
    doubled = factor_trajectory(lambda t: (factor_at(t)[0], 2.0 * factor_at(t)[1]), dim=4)
    assert speeds_at(doubled, times, SLD).speeds.tobytes() == (2.0 * speeds_at(factor_trajectory(factor_at, dim=4), times, SLD).speeds).tobytes()

    # both callables wrapped, as bench/tracer.py wraps them: the trajectory
    # keeps its blocks, evaluated in their place
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


@pytest.mark.parametrize("key,bath", list(model_cases()))
def test_dense_helpers_take_one_eigensolver_per_batch(monkeypatch, key, bath):
    """A built-in model runs no decomposition; ``conjugate_trajectory`` and
    ``without_analytic_derivative`` state its factor, so each of their
    batches is one ``linalg.svd_stack`` call, of the same speeds."""
    solver, calls = linalg.svd_stack, []
    monkeypatch.setattr(linalg, "svd_stack", lambda factor: calls.append(factor.shape) or solver(factor))
    traj = trajectory_from_key(key, alpha=0.7, **bath)
    times = np.linspace(0.5, 8.0, 7)
    for metric in MetricKind:
        want = speeds_at(traj, times, metric).speeds
        speed_at(traj, 2.5, metric)
        assert calls == []
        rotated = conjugate_trajectory(traj, random_unitary(np.random.default_rng(7), traj.dim))
        assert_close(speeds_at(rotated, times, metric).speeds, want, rel=1e-12)
        (shape,) = calls
        assert shape[:2] == (7, traj.dim)
        assert_close(speeds_at(without_analytic_derivative(traj), times, metric).speeds, want, rel=1e-6)
        assert calls == [shape] * 2
        calls.clear()


# every branch of G_t, and widths whose kappa t / 2 overflows at late times
LATE_WIDTHS = [0.1, 0.5, 2.0, 10.0, 1e6]
LATE_BATHS = [{"Gamma_over_gamma0": width} for width in LATE_WIDTHS] + [{"markovian_limit": True}]
LATE_TIMES = [60.0, 1e3, 1e100, 1e308, sys.float_info.max]


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_late_times_give_finite_speeds_without_warnings(key):
    """Every model is defined for all t >= 0: at late times, up to the
    largest float, each width's speed is finite on the point path, on a
    time array and on a family of widths, under warnings as errors."""
    baths = [{}] if key.startswith("closed") else LATE_BATHS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bath in baths:
            traj = trajectory_from_key(key, alpha=0.7, **bath)
            for metric in MetricKind:
                speeds = speeds_at(traj, LATE_TIMES, metric).speeds
                assert np.isfinite(speeds).all()
                assert all(math.isfinite(speed_at(traj, t, metric)) for t in LATE_TIMES)
        if key.startswith("open"):
            family = trajectory_from_key(key, alpha=0.7, Gamma_over_gamma0=np.array(LATE_WIDTHS))
            for metric in MetricKind:
                assert np.isfinite(speeds_at(family, np.array(LATE_TIMES)[:, None], metric).speeds).all()


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
    # the float 1 - P_t is 0 at t = 0 and below about t = 5e-8 at
    # Gamma/gamma0 = 0.1, where c_t = sqrt(1 - P_t) has the derivative 0/0
    with np.errstate(all="raise"):
        for key, bath in model_cases():
            traj = trajectory_from_key(key, alpha=0.7, **bath)
            for end in (50.0, 700.0):
                times = np.concatenate([[0.0, 1e-12, 1e-10, 1e-8, 1e-4], np.linspace(0.01, end, 301)])
                for metric in MetricKind:
                    result = speeds_at(traj, times, metric)
                    assert not result.failures and np.isfinite(result.speeds[1:]).all()
                    speed_at(traj, 3.0, metric)
                    speed_at(traj, 1e-10, metric)
        for figure_id in cli.FIGURES:
            with redirect_stdout(io.StringIO()):
                assert cli.main(["figure", figure_id]) == 0
        # the block function runs in its caller's scope: each entry holds one. Widths up to 50 take the
        # hyperbolic split at these times, and kappa t / 2 overflows at 1e308
        xi = np.linspace(0.02, 3.0, 40)
        h = stencil_step(xi)
        widths = 1.0 / np.stack([xi, xi + h, xi - h])
        late = np.array([1.0, 700.0, 1e308])
        for key in ("open-1q", "open-2q-aligned", "open-2q-anti"):
            family = trajectory_from_key(key, alpha=0.7, Gamma_over_gamma0=widths)
            one = trajectory_from_key(key, alpha=0.7, Gamma_over_gamma0=np.array([50.0]))
            for metric in MetricKind:
                for t in late.tolist():
                    assert np.isfinite(speeds_at(family, t, metric).speeds).all()
                    assert math.isfinite(speed_at(one, t, metric))
            family = trajectory_from_key(key, alpha=0.7, Gamma_over_gamma0=np.array([0.4, 2.0, 7.0, 50.0]))
            for dense in (family.state_at(late[:, None]), family.derivative_at(late[:, None])):
                assert np.isfinite(dense).all()
        p = OpenSystemParams(Gamma=10.0)  # kappa t / 2 = 20 near t = 4.5
        assert np.isfinite(amplitude_factor(p, np.array([1.0, 5.0, 50.0, 1e5, 1e308]))).all()


def test_figure_and_detect_annotate_failed_rows(monkeypatch):
    fail_between(monkeypatch, 1.9, 2.1)
    for argv, note, failed_row in (
        # the grid point t = 2.0000933 and its stencil fail
        (["figure", "fig3b", "--points", "16"], "t=2.00009333333", ["2.00009333333", "nan", "nan"]),
        (["detect", "--model", "closed-1q", "--sweep", "t:1:3:5"], "t=2", ["2", "nan", "nan", "nan"]),
    ):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        text = out.getvalue()
        assert f"# note: skipped {note}: injected at t = " in text
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert [row for row in rows if "nan" in row] == [failed_row]


@pytest.mark.xfail(
    strict=True,
    reason="the model forms 1 - P_t as the float 1 - G_t^2, which cancels near "
    "t = 0: c_t = sqrt(1 - P_t) and the speed move by a relative 1.5e-7 at "
    "t = 1e-4 (ROADMAP item 2, a stable 1 - P_t)",
)
def test_two_qubit_speed_near_zero_matches_closed_form():
    params = OpenSystemParams(alpha=1.0 / math.sqrt(2.0), Gamma=0.1)
    traj = open_model("open-2q-aligned", params)
    closed = open_two_qubit_speed_analytic(params, 1e-4)
    assert closed == pytest.approx(0.223606052341, rel=1e-11)
    assert speed_at(traj, 1e-4) == pytest.approx(closed, rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="the model forms 1 - P_t as the float 1 - G_t^2, which keeps few "
    "digits at t <= 1e-6: the speeds read 0.50585, 0.50020 and 2.37266 "
    "(ROADMAP item 2, a stable 1 - P_t)",
)
@pytest.mark.parametrize(
    "Gamma,t,expected", [(0.5, 1e-7, 0.5), (0.5, 1e-6, 0.5), (10.0, 1e-8, math.sqrt(5.0))]
)
def test_anti_pair_speed_near_zero(Gamma, t, expected):
    # the anti pair's eigenvalues are P_t and 1 - P_t on fixed eigenvectors
    params = OpenSystemParams(alpha=0.6, Gamma=Gamma)
    closed = abs(population_factor_dot(params, t)) / (
        2.0 * math.sqrt(population_factor(params, t) * population_complement(params, t))
    )
    assert closed == pytest.approx(expected, rel=1e-6)
    assert speed_at(open_model("open-2q-anti", params), t) == pytest.approx(closed, rel=1e-6)
