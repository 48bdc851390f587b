import math

import numpy as np
import pytest

from qevspeed.metrics import MetricKind
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_factor,
    trajectory_from_key,
)
from qevspeed.speed import (
    Trajectory,
    speed_at,
    speed_curve,
    speeds_at,
    speedup_measures,
)
from util import (
    TOUCH_TOL,
    DegenerateSpectrumError,
    FactorTrajectory,
    conjugate_trajectory,
    factor_speeds,
    fubini_study_speed,
    mc_kernel,
    open_model,
    random_hermitian,
    random_unitary,
    speed_spectral_form,
    speedup_measure,
    stacked,
    without_analytic_derivative,
)

SLD = MetricKind.SLD
WY = MetricKind.WY


def stationary_trajectory():
    root = np.diag([0.3, 0.7]) ** 0.5
    return FactorTrajectory(stacked(lambda t: (root, 0.0 * root)), dim=2)


def stationary_blocks():
    """A hand-written curve in ``Trajectory``'s block layout that rests at
    diag(0.3, 0.7): two rays (index, (p, s), (dp, ds)) that do not move."""
    rays = [((0,), (0.3, 0.3**0.5), (0.0, 0.0)), ((1,), (0.7, 0.7**0.5), (0.0, 0.0))]
    return Trajectory(dim=2, state_at=None, derivative_at=None, blocks=lambda t: rays)


def diagonal_trajectory():
    """Constant eigenvectors, eigenvalues (p(t), 1 - p(t)) with p < 1/2."""

    def factor(t):
        p, dp = 0.25 + 0.1 * math.sin(t), 0.1 * math.cos(t)
        roots = np.array([p, 1.0 - p]) ** 0.5
        return np.diag(roots), np.diag([dp, -dp] / (2.0 * roots))

    return FactorTrajectory(stacked(factor), dim=2)


def rotating_mixed_trajectory():
    """Moving eigenvalues and rotating eigenvectors: the factor
    R(t) diag(sqrt d, sqrt(1 - d)) with R(t) = exp(-i rate t generator)."""
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

    def factor(t):
        rotation = math.cos(rate * t) * np.eye(2) - 1j * math.sin(rate * t) * generator
        d, d_dot = 0.3 + 0.1 * math.sin(0.7 * t), 0.07 * math.cos(0.7 * t)
        roots = np.array([d, 1.0 - d]) ** 0.5
        root = rotation @ np.diag(roots)
        # d/dt R D^(1/2) = -i rate generator R D^(1/2) + R d(D^(1/2))/dt
        return root, -1j * rate * generator @ root + rotation @ np.diag([d_dot, -d_dot] / (2.0 * roots))

    return FactorTrajectory(stacked(factor), dim=2)


class TestRhoDot:
    """``derivative_at``: a model's scatters its blocks, and the factor
    oracle's is A' A^dagger + A A'^dagger."""

    def test_stationary_is_zero(self):
        d = stationary_trajectory().derivative_at(1.0)
        np.testing.assert_allclose(d, np.zeros((2, 2)), atol=1e-12)

    def test_finite_difference_matches_analytic_closed(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.3)
        numeric = without_analytic_derivative(traj, 1e-5)
        for t in (0.3, 1.7, 4.0):
            np.testing.assert_allclose(numeric.derivative_at(t), traj.derivative_at(t), atol=1e-8)

    def test_open_population_rate(self):
        # d/dt of the excited-population entry equals rho_11(0) * dP/dt
        params = OpenSystemParams(alpha=0.8, Gamma=0.5)
        traj = open_model("open-1q", params)
        h = 1e-6
        for t in (0.4, 1.1, 3.0):
            fd = (population_factor(params, t + h) - population_factor(params, t - h)) / (
                2 * h
            )
            analytic = traj.derivative_at(t)[0, 0].real
            assert analytic == pytest.approx(0.64 * fd, abs=1e-8)

    def test_endpoints_use_one_sided_differences(self):
        # one-sided at t = 0, the start; central at any later time
        traj = without_analytic_derivative(
            trajectory_from_key("closed-1q", alpha=0.6), 1e-6
        )
        exact = trajectory_from_key("closed-1q", alpha=0.6)
        np.testing.assert_allclose(traj.derivative_at(0.0), exact.derivative_at(0.0), atol=1e-5)
        np.testing.assert_allclose(traj.derivative_at(1.0), exact.derivative_at(1.0), atol=1e-5)

    def test_result_is_hermitian(self):
        d = rotating_mixed_trajectory().derivative_at(1.3)
        np.testing.assert_allclose(d, d.conj().T, atol=1e-14)


class TestSpeedAt:
    def test_closed_qubit_uniform_speed(self):
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.0)
        for t in (0.0, 0.5, 2.0, 7.3):
            assert speed_at(traj, t, SLD) == pytest.approx(0.48, rel=1e-12)

    def test_stationary_speed_is_zero(self):
        assert factor_speeds(stationary_trajectory(), 1.0, SLD) == pytest.approx(0.0, abs=1e-10)

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
        # a trajectory is defined for every t >= 0
        traj = trajectory_from_key("closed-1q", alpha=0.6, omega=1.0)
        with pytest.raises(ValueError, match=r"^t = -1.0 outside trajectory range \[0, inf\)$"):
            speed_at(traj, -1.0, SLD)
        assert speed_at(traj, 1e3, SLD) == pytest.approx(0.48, rel=1e-12)

    def test_states_must_match_declared_dim(self):
        """Every model's states and derivatives are of its declared dim, on
        one time and on a batch; the factor oracle rejects factors of another
        size on either."""
        for key in MODEL_KEYS:
            bath = {} if key.startswith("closed") else {"Gamma_over_gamma0": 0.5}
            traj = trajectory_from_key(key, alpha=0.6, **bath)
            for t in (1.0, np.array([1.0, 2.0])):
                for matrices in (traj.state_at(t), traj.derivative_at(t)):
                    assert matrices.shape == np.shape(t) + (traj.dim, traj.dim), key
        root = np.diag([0.3, 0.7]) ** 0.5
        traj = FactorTrajectory(stacked(lambda t: (root, 0.0 * root)), dim=4)
        with pytest.raises(ValueError, match=r"declares dim=4 but its factors have 2 rows"):
            factor_speeds(traj, np.array([1.0, 2.0]), SLD)
        with pytest.raises(ValueError, match=r"declares dim=4 but its factors have 2 rows"):
            factor_speeds(traj, 1.0, SLD)

    @pytest.mark.parametrize(
        "traj",
        [
            stationary_blocks(),
            trajectory_from_key("closed-2q-aligned", alpha=0.6),
            trajectory_from_key("open-1q", alpha=0.6, Gamma_over_gamma0=0.1),
            trajectory_from_key("closed-1q", alpha=np.array([0.2, 0.6, 0.9])),
            trajectory_from_key("open-1q", alpha=np.array([0.2, 0.6, 0.9]), Gamma_over_gamma0=0.1),
        ],
        ids=["hand-written", "closed", "open", "closed-family", "open-family"],
    )
    def test_empty_batches(self, traj):
        """No times give an empty batch of the shape some times give: the
        times' broadcast against the family's."""
        members = traj.shape or (1,)
        assert speeds_at(traj, np.empty((0, 1)), SLD).shape == (0, *members)
        assert speeds_at(traj, np.ones((4, 1)), SLD).shape == (4, *members)
        if traj.shape:  # flat times do not broadcast against a family of 3, empty or not
            for times in (np.empty(0), np.ones(2)):
                with pytest.raises(ValueError, match="broadcast"):
                    speeds_at(traj, times, SLD)
            return
        assert speeds_at(traj, np.array([]), SLD).shape == (0,)
        speeds, slopes = speedup_measures(lambda t: speeds_at(traj, t, SLD), [])
        assert speeds.shape == slopes.shape == (0,)

    def test_nonnegative_on_models(self):
        trajectories = [
            trajectory_from_key("closed-1q", alpha=0.4),
            open_model("open-1q", OpenSystemParams(alpha=0.7, Gamma=0.5)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.6, Gamma=2.5)),
        ]
        for traj in trajectories:
            for t in np.linspace(0.1, 8.0, 25):
                assert speed_at(traj, float(t), SLD) >= 0.0

    # a state with one eigenvalue is pure: its speed is 0 on both paths
    def test_one_by_one_batch(self):
        one = Trajectory(dim=1, state_at=None, derivative_at=None, blocks=lambda t: [((0,), (1.0, 1.0), (0.0, 0.0))])
        assert speeds_at(one, np.array([0.5, 1.0, 2.0]), SLD).tolist() == [0.0, 0.0, 0.0]

    def test_one_by_one_point(self):
        one = Trajectory(dim=1, state_at=None, derivative_at=None, blocks=lambda t: [((0,), (1.0, 1.0), (0.0, 0.0))])
        assert speed_at(one, 1.0, WY) == 0.0
        speeds = speeds_at(one, 1.0, WY)
        assert speeds.shape == () and speeds == 0.0

    def test_one_dimensional_trajectory(self):
        # a turning phase of the factor is a gauge: the state rests, by the
        # oracle and by the blocks, whose root may take either sign
        phase = FactorTrajectory(stacked(lambda t: ([[np.exp(1j * t)]], [[1j * np.exp(1j * t)]])), dim=1)
        assert factor_speeds(phase, np.array([0.5, 2.0]), SLD) == pytest.approx([0.0, 0.0], abs=1e-15)
        assert factor_speeds(phase, 1.0, SLD) == pytest.approx(0.0, abs=1e-15)
        signed = Trajectory(dim=1, state_at=None, derivative_at=None, blocks=lambda t: [((0,), (1.0, -1.0), (0.0, 0.0))])
        for metric in MetricKind:
            assert speeds_at(signed, np.array([0.5, 2.0]), metric).tolist() == [0.0, 0.0]
            assert speed_at(signed, 1.0, metric) == 0.0


WIDTHS = [{"Gamma": 0.1}, {"Gamma": 2.0}, {"Gamma": 10.0}, {"markovian_limit": True}]


class TestZeroTimeLimit:
    """At t = 0 the open models start on the boundary of the state space,
    where their blocks state the limit of the speed: t = 0 is an ordinary
    point of both paths, ``inf`` in the Markovian limit."""

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
            with_zero = speeds_at(traj, times, metric)
            assert with_zero[0] == speed_at(traj, 0.0, metric)
            without = speeds_at(traj, times[1:], metric)
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
        _, slopes = speedup_measures(lambda t: speeds_at(self.TRAJ, t), self.TIMES)
        assert max(self.relative_errors(slopes)) <= 1e-9

    def test_longer_and_shorter_steps_miss_1e_9(self):
        def slopes(step):
            return [speedup_measure(lambda x: speed_at(self.TRAJ, x), t, step) for t in self.TIMES]

        # truncation error at every t, rounding error at some
        assert min(self.relative_errors(slopes(1e-3))) > 1e-9
        assert max(self.relative_errors(slopes(1e-8))) > 1e-9


def touching_factor(rng, dim: int, small, tail: bool):
    """A = W Sigma V^dagger at a point of a curve on which W and V turn under
    generic anti-Hermitian generators, W' = W K and V' = V L, with the
    singular values (1, 0.6, ...) and the ``small`` ones last. Each small
    singular value touches zero (sigma' = 0.8) or decays in a tail
    (sigma' = -0.7 sigma). Returns A, A', the eigenvalues p = sigma^2, their
    derivatives and Omega = W^dagger W' = K."""
    large = np.linspace(1.0, 0.6, dim - len(small))
    sigma = np.concatenate([large, small])
    dsigma = np.concatenate([rng.uniform(-0.5, 0.5, large.size), -0.7 * np.asarray(small) if tail else [0.8] * len(small)])
    w, v = random_unitary(rng, dim), random_unitary(rng, dim)
    k, l = (1j * random_hermitian(rng, dim) for _ in range(2))
    factor = (w * sigma) @ v.conj().T
    move = w @ (k * sigma + np.diag(dsigma) - sigma[:, None] * l) @ v.conj().T
    return factor, move, sigma * sigma, 2.0 * sigma * dsigma, k


def analytic_fisher(metric, p, dsigma_terms, omega) -> float:
    """F = sum 4 sigma_k'^2 + sum_{k != l} c(p_k, p_l) |Omega_kl|^2 (p_l - p_k)^2,
    with the diagonal term written 4 sigma'^2 = (dp)^2 / p."""
    pk, pl = p[:, None], p[None, :]
    gap = (pl - pk) ** 2
    kernel = mc_kernel(metric, pk, pl, where=gap > 0.0)
    return float(np.sum(dsigma_terms) + np.sum(kernel * np.abs(omega) ** 2 * gap))


SMALL = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 0.0]


class TestTolerances:
    """``TOUCH_TOL``, the factor oracle's one tolerance, on each side."""

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_rank_cut(self, side):
        # a singular value sigma = side * TOUCH_TOL moves its column into the
        # other row: that element is weighted by sigma, so it reads 0 below
        # the cut (sigma counts as 0) and sigma / sqrt(1 + sigma^2) above
        small = side * TOUCH_TOL
        move = np.array([[0.0, 1.0], [0.0, 0.0]])
        traj = FactorTrajectory(lambda t: (np.diag([1.0, small]), move), dim=2)
        speed = factor_speeds(traj, 1.0, SLD)
        if side < 1.0:
            assert speed == 0.0
        else:
            assert speed == pytest.approx(small / math.sqrt(1.0 + small * small), rel=1e-12)

    @pytest.mark.parametrize("tail", [False, True], ids=["touching", "tail"])
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_random_factors_on_each_side(self, metric, tail):
        """One or two small singular values on either side of the cut, of
        random factors: the factor oracle meets the analytic F to 1e-10."""
        rng = np.random.default_rng(71)
        worst = 0.0
        for dim in (2, 3, 4):
            for first in SMALL:
                for second in [None, *SMALL[SMALL.index(first) + 1 :]] if dim > 2 else [None]:
                    small = [first] if second is None else [first, second]
                    factor, move, p, dp, omega = touching_factor(rng, dim, small, tail)
                    sigma = np.sqrt(p)
                    dsigma_terms = np.divide(dp * dp, p, out=np.zeros(dim), where=p > 0.0)
                    if not tail:
                        dsigma_terms[p == 0.0] = 4.0 * 0.8**2
                    want = analytic_fisher(metric, p, dsigma_terms, omega)
                    got = 4.0 * factor_speeds(FactorTrajectory(lambda t: (factor, move), dim=dim), 1.0, metric) ** 2
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-10


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
            direct = float(factor_speeds(traj, t, SLD))
            spectral = speed_spectral_form(traj, t, SLD)
            assert spectral == pytest.approx(direct, rel=1e-6)
            assert speed_spectral_form(traj, t, WY) == pytest.approx(
                float(factor_speeds(traj, t, WY)), rel=1e-6
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
            speed_curve(traj, np.array([-1.0, 1.0]), SLD)
        np.testing.assert_allclose(speed_curve(traj, np.array([1.0, 99.0]), SLD).speeds, 0.48, rtol=1e-12)


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
                assert float(factor_speeds(rotated, t, SLD)) == pytest.approx(
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
