import math

import numpy as np
import pytest

from qevspeed.errors import RankIncreaseError
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    OpenSystemParams,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_factor,
    trajectory_from_key,
)
from qevspeed.speed import (
    ELEM_TOL,
    PURE_STATE_TOL,
    RANK_TOL,
    Trajectory,
    kernel_speeds,
    rho_dot,
    speed_at,
    speed_curve,
    speeds_at,
    speedup_measures,
)
from util import (
    DegenerateSpectrumError,
    conjugate_trajectory,
    fubini_study_speed,
    leaking_trajectory,
    open_model,
    random_unitary,
    speed_spectral_form,
    speedup_measure,
    stacked,
    without_analytic_derivative,
)

SLD = MetricKind.SLD
WY = MetricKind.WY


def stationary_trajectory() -> Trajectory:
    rho = np.diag([0.3, 0.7]).astype(complex)
    return Trajectory(
        dim=2, horizon=10.0, state_at=stacked(lambda t: rho), derivative_at=stacked(lambda t: 0.0 * rho)
    )


def diagonal_trajectory() -> Trajectory:
    """Constant eigenvectors, eigenvalues (p(t), 1 - p(t)) with p < 1/2."""

    def p(t):
        return 0.25 + 0.1 * math.sin(t)

    def state(t):
        return np.diag([p(t), 1.0 - p(t)]).astype(complex)

    def derivative(t):
        return np.diag([0.1 * math.cos(t), -0.1 * math.cos(t)]).astype(complex)

    return Trajectory(dim=2, horizon=10.0, state_at=stacked(state), derivative_at=stacked(derivative))


def rotating_mixed_trajectory() -> Trajectory:
    """Moving eigenvalues and rotating eigenvectors."""
    axis = np.array([0.3, 0.5, 0.8])
    axis /= np.linalg.norm(axis)
    sigma = np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )
    generator = np.tensordot(axis, sigma, axes=1)
    rate = 0.9

    def rotation(t):
        return math.cos(rate * t) * np.eye(2) - 1j * math.sin(rate * t) * generator

    def state(t):
        d = 0.3 + 0.1 * math.sin(0.7 * t)
        return rotation(t) @ np.diag([d, 1.0 - d]).astype(complex) @ rotation(t).conj().T

    def derivative(t):
        # d/dt U D U^dagger = -i rate [generator, rho] + U (dD/dt) U^dagger
        rho = state(t)
        d_dot = 0.07 * math.cos(0.7 * t)
        moving = rotation(t) @ np.diag([d_dot, -d_dot]).astype(complex) @ rotation(t).conj().T
        return -1j * rate * (generator @ rho - rho @ generator) + moving

    return Trajectory(dim=2, horizon=10.0, state_at=stacked(state), derivative_at=stacked(derivative))


class TestRhoDot:
    def test_stationary_is_zero(self):
        d = rho_dot(stationary_trajectory(), 1.0)
        np.testing.assert_allclose(d, np.zeros((2, 2)), atol=1e-12)

    def test_finite_difference_matches_analytic_closed(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.3)
        numeric = without_analytic_derivative(traj, 1e-5)
        for t in (0.3, 1.7, 4.0):
            np.testing.assert_allclose(rho_dot(numeric, t), rho_dot(traj, t), atol=1e-8)

    def test_open_population_rate(self):
        # d/dt of the excited-population entry equals rho_11(0) * dP/dt
        params = OpenSystemParams(alpha=0.8, Gamma=0.5)
        traj = open_model("open-1q", params)
        h = 1e-6
        for t in (0.4, 1.1, 3.0):
            fd = (population_factor(params, t + h) - population_factor(params, t - h)) / (
                2 * h
            )
            analytic = rho_dot(traj, t)[0, 0].real
            assert analytic == pytest.approx(0.64 * fd, abs=1e-8)

    def test_endpoints_use_one_sided_differences(self):
        traj = without_analytic_derivative(
            trajectory_from_key("closed-1q", alpha=0.6, horizon=1.0), 1e-6
        )
        left = rho_dot(traj, 0.0)
        right = rho_dot(traj, 1.0)
        exact = trajectory_from_key("closed-1q", alpha=0.6, horizon=1.0)
        np.testing.assert_allclose(left, rho_dot(exact, 0.0), atol=1e-5)
        np.testing.assert_allclose(right, rho_dot(exact, 1.0), atol=1e-5)

    def test_result_is_hermitian(self):
        traj = rotating_mixed_trajectory()
        d = rho_dot(traj, 1.3)
        np.testing.assert_allclose(d, d.conj().T, atol=1e-14)


class TestSpeedAt:
    def test_closed_qubit_uniform_speed(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.0)
        for t in (0.0, 0.5, 2.0, 7.3):
            assert speed_at(traj, t, SLD) == pytest.approx(0.48, rel=1e-12)

    def test_stationary_speed_is_zero(self):
        assert speed_at(stationary_trajectory(), 1.0, SLD) == pytest.approx(0.0, abs=1e-10)

    def test_markovian_qubit_value(self):
        # S = 1 / (2 sqrt(e - 1)) at t = 1 for alpha = 1
        traj = open_model("open-1q", OpenSystemParams(alpha=1.0, markovian_limit=True))
        expected = 0.5 / math.sqrt(math.e - 1.0)
        assert speed_at(traj, 1.0, SLD) == pytest.approx(expected, rel=1e-10)

    def test_zero_time_returns_advertised_limit(self):
        params = OpenSystemParams(alpha=1.0, Gamma=0.1)
        traj = open_model("open-1q", params)
        assert speed_at(traj, 0.0, SLD) == pytest.approx(math.sqrt(0.05), rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            speed_at(stationary_trajectory(), 11.0, SLD)

    def test_states_must_match_declared_dim(self):
        rho = stationary_trajectory()
        traj = Trajectory(dim=4, horizon=10.0, state_at=rho.state_at, derivative_at=rho.derivative_at)
        with pytest.raises(ValueError, match=r"declares dim=4 but its states have shape \(2, 2\)"):
            speeds_at(traj, np.array([1.0, 2.0]), SLD)

    @pytest.mark.parametrize(
        "traj",
        [
            stationary_trajectory(),
            trajectory_from_key("closed-2q-aligned", alpha=0.6),
            trajectory_from_key("open-1q", alpha=0.6, Gamma_over_gamma0=0.1),
        ],
        ids=["hand-written", "closed", "open"],
    )
    def test_empty_batches(self, traj):
        result = speeds_at(traj, np.array([]), SLD)
        assert result.speeds.shape == (0,) and not result.failures
        speeds, slopes, failures = speedup_measures(lambda t: speeds_at(traj, t, SLD), [])
        assert speeds.shape == slopes.shape == (0,) and failures == {}

    def test_nonnegative_on_models(self):
        trajectories = [
            trajectory_from_key("closed-1q", alpha=0.4),
            open_model("open-1q", OpenSystemParams(alpha=0.7, Gamma=0.5)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.6, Gamma=2.5)),
        ]
        for traj in trajectories:
            for t in np.linspace(0.1, 8.0, 25):
                assert speed_at(traj, float(t), SLD) >= 0.0

    def test_rank_increase_raises(self):
        traj = leaking_trajectory(-math.inf, math.inf, horizon=10.0)
        with pytest.raises(RankIncreaseError, match="rank"):
            speed_at(traj, 1.0, SLD)

    # a state with one eigenvalue is pure: its speed is 0 on both paths
    def test_one_by_one_batch(self):
        result = kernel_speeds(np.ones((3, 1, 1)), np.zeros((3, 1, 1)), SLD)
        assert result.speeds.tolist() == [0.0, 0.0, 0.0] and not result.failures

    def test_one_by_one_point(self):
        result = kernel_speeds(np.ones((1, 1)), np.zeros((1, 1)), WY)
        assert result.speeds.shape == () and result.speeds == 0.0 and not result.failures

    def test_one_dimensional_trajectory(self):
        traj = Trajectory(
            dim=1, horizon=10.0, state_at=stacked(lambda t: [[1.0]]), derivative_at=stacked(lambda t: [[0.0]])
        )
        assert speeds_at(traj, np.array([0.5, 2.0]), SLD).speeds.tolist() == [0.0, 0.0]
        assert speed_at(traj, 1.0, SLD) == 0.0


WIDTHS = [{"Gamma": 0.1}, {"Gamma": 2.0}, {"Gamma": 10.0}, {"markovian_limit": True}]


class TestZeroTimeLimit:
    """At t = 0 the open models start on the boundary of the state space and
    return their ``speed_at_zero`` limit, ``inf`` in the Markovian limit."""

    @pytest.mark.parametrize("bath", WIDTHS)
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    def test_equals_closed_form_exactly(self, alpha, bath):
        p = OpenSystemParams(alpha=alpha, **bath)
        assert speed_at(open_model("open-1q", p), 0.0) == open_qubit_speed_analytic(p, 0.0)
        pair = open_model("open-2q-aligned", p)
        assert speed_at(pair, 0.0) == open_two_qubit_speed_analytic(p, 0.0)

    @pytest.mark.parametrize("bath", WIDTHS)
    def test_anti_aligned_pair(self, bath):
        p = OpenSystemParams(alpha=0.6, **bath)
        expected = math.inf if p.markovian_limit else math.sqrt(p.Gamma / 2.0)
        assert speed_at(open_model("open-2q-anti", p), 0.0) == expected

    @pytest.mark.parametrize("bath", WIDTHS)
    @pytest.mark.parametrize("kind", ["1q", "aligned", "anti"])
    def test_batch_through_zero(self, kind, bath):
        p = OpenSystemParams(alpha=0.6, **bath)
        traj = open_model("open-1q" if kind == "1q" else f"open-2q-{kind}", p)
        times = np.array([0.0, 1e-6, 0.5, 3.0])
        for metric in (SLD, WY):
            with_zero = speeds_at(traj, times, metric).speeds
            assert with_zero[0] == traj.speed_at_zero
            without = speeds_at(traj, times[1:], metric).speeds
            assert with_zero[1:].tobytes() == without.tobytes()


class TestDefaultTimeStep:
    """The slope stencil's half-width DEFAULT_TIME_STEP against the exact
    slope of the Markovian qubit with alpha = 1, S = e^{-t/2} / (2 sqrt(1 - e^{-t})),
    which is dS/dt = -S / (2 (1 - e^{-t}))."""

    TIMES = (0.5, 1.0, 3.0, 8.0)
    TRAJ = open_model("open-1q", OpenSystemParams(alpha=1.0, markovian_limit=True))

    @staticmethod
    def exact_slope(t):
        complement = -math.expm1(-t)
        return -math.exp(-0.5 * t) / (4.0 * complement * math.sqrt(complement))

    def relative_errors(self, slopes):
        return [abs(slope / self.exact_slope(t) - 1.0) for t, slope in zip(self.TIMES, slopes)]

    def test_default_step_reaches_1e_9(self):
        _, slopes, failures = speedup_measures(lambda t: speeds_at(self.TRAJ, t), self.TIMES)
        assert not failures
        assert max(self.relative_errors(slopes)) <= 1e-9

    def test_longer_and_shorter_steps_miss_1e_9(self):
        def slopes(step):
            return [speedup_measure(lambda x: speed_at(self.TRAJ, x), t, step) for t in self.TIMES]

        # truncation error at every t, rounding error at some
        assert min(self.relative_errors(slopes(1e-3))) > 1e-9
        assert max(self.relative_errors(slopes(1e-8))) > 1e-9


class TestTolerances:
    """Hand-built states on each side of each threshold of ``kernel_speeds``."""

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_pure_state_route(self, side):
        # a diagonal drho on the small eigenvalue is invisible to the
        # Fubini-Study speed of the top eigenvector; the kernel sum weights it
        # by c(p, p) = 1/p
        small = side * PURE_STATE_TOL
        rho = np.diag([1.0 - small, small]).astype(complex)
        drho = np.diag([-1e-9, 1e-9]).astype(complex)
        speed = kernel_speeds(rho[None], drho[None], SLD).speeds[0]
        if side < 1.0:
            assert speed == 0.0
        else:
            expected = 0.5 * 1e-9 * math.sqrt(1.0 / (1.0 - small) + 1.0 / small)
            assert speed == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_rank_cut(self, side):
        # a pair summing to side * RANK_TOL, coupled far above ELEM_TOL: kept
        # with weight 2 / (x + y) above the cut, a rank increase below it
        x = 0.5 * RANK_TOL
        y = (side - 0.5) * RANK_TOL
        rho = np.diag([x, y, 0.4, 0.6 - x - y]).astype(complex)
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 1] = drho[1, 0] = 1e-3
        result = kernel_speeds(rho[None], drho[None], SLD, times=np.array([2.5]))
        if side < 1.0:
            assert isinstance(result.failures[0], RankIncreaseError)
            assert result.failures[0].pair == (0, 1)
            assert math.isnan(result.speeds[0])
        else:
            assert not result.failures
            assert result.speeds[0] == pytest.approx(1e-3 / math.sqrt(x + y), rel=1e-9)

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_element_cut(self, side):
        # a boundary pair (both eigenvalues 0) with a derivative element of
        # side * ELEM_TOL: dropped below the cut, a rank increase above it
        rho = np.diag([0.0, 0.0, 0.3, 0.7]).astype(complex)
        drho = np.diag([0.0, 0.0, -0.01, 0.01]).astype(complex)
        drho[0, 1] = drho[1, 0] = side * ELEM_TOL
        result = kernel_speeds(rho[None], drho[None], SLD)
        if side < 1.0:
            assert not result.failures
            assert result.speeds[0] == pytest.approx(
                0.5 * 0.01 * math.sqrt(1.0 / 0.3 + 1.0 / 0.7), rel=1e-12
            )
        else:
            assert isinstance(result.failures[0], RankIncreaseError)
            assert math.isnan(result.speeds[0])


class TestSpectralForm:
    def test_diagonal_trajectory_matches_eigenvalue_motion(self):
        traj = diagonal_trajectory()
        for t in (0.5, 1.2, 2.8):
            p = 0.25 + 0.1 * math.sin(t)
            p_dot = 0.1 * math.cos(t)
            expected = math.hypot(p_dot / (2 * math.sqrt(p)), p_dot / (2 * math.sqrt(1 - p)))
            assert speed_spectral_form(traj, t, SLD) == pytest.approx(expected, rel=1e-8)

    def test_anti_aligned_open_pair(self):
        # constant eigenvectors, eigenvalues {P, 1-P}: S = |dP/dt| / (2 sqrt(P(1-P)))
        params = OpenSystemParams(alpha=0.6, Gamma=0.5)
        traj = open_model("open-2q-anti", params)
        h = 1e-7
        for t in (0.5, 1.0, 2.5):
            pop = population_factor(params, t)
            slope = (
                population_factor(params, t + h) - population_factor(params, t - h)
            ) / (2 * h)
            expected = abs(slope) / (2 * math.sqrt(pop * (1 - pop)))
            assert speed_spectral_form(traj, t, SLD) == pytest.approx(expected, rel=1e-6)

    def test_agrees_with_kernel_sum_on_rotating_state(self):
        traj = rotating_mixed_trajectory()
        for t in (0.4, 1.1, 2.9, 5.0):
            direct = speed_at(traj, t, SLD)
            spectral = speed_spectral_form(traj, t, SLD)
            assert spectral == pytest.approx(direct, rel=1e-6)
            assert speed_spectral_form(traj, t, WY) == pytest.approx(
                speed_at(traj, t, WY), rel=1e-6
            )

    def test_degenerate_spectrum_raises(self):
        traj = open_model("open-1q", OpenSystemParams(alpha=1.0, markovian_limit=True))
        with pytest.raises(DegenerateSpectrumError):
            speed_spectral_form(traj, math.log(2.0), SLD)

    def test_crossing_inside_stencil_raises(self):
        traj = open_model("open-1q", OpenSystemParams(alpha=1.0, markovian_limit=True))
        with pytest.raises(DegenerateSpectrumError):
            speed_spectral_form(traj, math.log(2.0) - 0.5e-5, SLD, step=1e-5)

    def test_requires_room_for_stencil(self):
        with pytest.raises(ValueError, match="stencil"):
            speed_spectral_form(stationary_trajectory(), 0.0, SLD)


class TestSpeedupMeasure:
    def test_closed_qubit_no_longitudinal_speedup(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6)
        value = speedup_measure(lambda t: speed_at(traj, t, SLD), 2.0)
        assert abs(value) <= 1e-10

    def test_closed_alpha_derivative_vanishes_at_balance(self):
        # S(alpha) = omega alpha sqrt(1 - alpha^2) peaks at alpha = 1/sqrt2

        def speed_of_alpha(alpha):
            traj = trajectory_from_key("closed-1q", alpha=alpha, omega=1.0)
            return speed_at(traj, 1.0, SLD)

        assert abs(speedup_measure(speed_of_alpha, 1.0 / math.sqrt(2.0))) <= 1e-8

    def test_default_step_scales_with_argument(self):
        values = []

        def probe(x):
            values.append(x)
            return x * x

        speedup_measure(probe, 100.0)
        assert values == pytest.approx([100.0 + 1e-3, 100.0 - 1e-3])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            speedup_measure(lambda x: x, 1.0, step=-1e-5)


class TestSpeedCurve:
    def test_closed_constant_column(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.0)
        curve = speed_curve(traj, np.linspace(0.0, 5.0, 11), SLD)
        np.testing.assert_allclose(curve.speeds, 0.48, rtol=1e-12)
        np.testing.assert_allclose(curve.slopes, 0.0, atol=1e-10)

    def test_two_point_grid_one_sided(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6)
        curve = speed_curve(traj, np.array([1.0, 2.0]), SLD)
        assert curve.speeds.shape == (2,)
        assert np.all(np.isfinite(curve.slopes))

    def test_memoryless_regime_decelerates_throughout(self):
        traj = open_model("open-1q", OpenSystemParams(alpha=1.0, Gamma=10.0))
        curve = speed_curve(traj, np.linspace(0.025, 10.0, 200), SLD)
        assert np.all(curve.slopes[1:-1] < 0.0)

    def test_grid_validation(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6)
        with pytest.raises(ValueError, match="two points"):
            speed_curve(traj, np.array([1.0]), SLD)
        with pytest.raises(ValueError, match="increasing"):
            speed_curve(traj, np.array([1.0, 1.0]), SLD)
        with pytest.raises(ValueError, match="outside"):
            speed_curve(traj, np.array([1.0, 99.0]), SLD)


class TestInvariants:
    def test_unitary_covariance(self):
        rng = np.random.default_rng(31)
        cases = [
            trajectory_from_key("closed-1q", alpha=0.6),
            open_model("open-1q", OpenSystemParams(alpha=0.8, Gamma=0.4)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.6, Gamma=3.0)),
        ]
        for traj in cases:
            u = random_unitary(rng, traj.dim)
            rotated = conjugate_trajectory(traj, u)
            for t in np.linspace(0.2, 6.0, 12):
                t = float(t)
                assert speed_at(rotated, t, SLD) == pytest.approx(
                    speed_at(traj, t, SLD), abs=1e-10, rel=1e-10
                )

    def test_pure_state_consistency_closed_models(self):
        a, w = 0.6, 1.4
        b = math.sqrt(1 - a * a)
        traj = trajectory_from_key("closed-1q", alpha=a, omega=w)
        for t in (0.3, 1.9, 4.4):
            phase = np.exp(-0.5j * w * t)
            psi = np.array([a * phase, b / phase])
            psi_dot = np.array([-0.5j * w * a * phase, 0.5j * w * b / phase])
            assert speed_at(traj, t, SLD) == pytest.approx(
                fubini_study_speed(psi, psi_dot), abs=1e-8
            )

    def test_wy_ratio_on_pure_trajectories(self):
        cases = [
            trajectory_from_key("closed-1q", alpha=0.6, omega=1.2),
            trajectory_from_key("closed-2q-aligned", alpha=0.8, omega=0.7),
        ]
        for traj in cases:
            for t in (0.2, 1.5, 3.3):
                sld = speed_at(traj, t, SLD)
                wy = speed_at(traj, t, WY)
                assert wy == pytest.approx(math.sqrt(2.0) * sld, abs=1e-10)

    def test_curve_integral_second_order_in_grid(self):
        # cumulative trapezoid length converges at order >= 1.9 under refinement
        traj = open_model("open-1q", OpenSystemParams(alpha=1.0, Gamma=10.0))

        def integral(points):
            curve = speed_curve(traj, np.linspace(0.5, 8.0, points), SLD)
            return float(np.trapezoid(curve.speeds, curve.times))

        coarse, mid, fine = integral(200), integral(400), integral(800)
        order = math.log2(abs(coarse - mid) / abs(mid - fine))
        assert order >= 1.9
