import math

import numpy as np
import pytest

from qevspeed.metrics import MetricKind
from qevspeed.models import (
    OpenSystemParams,
    alpha_from_concurrence,
    amplitude_factor,
    amplitude_factor_dot,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_complement,
    population_factor,
    population_factor_dot,
    trajectory_from_key,
)
from qevspeed.speed import speed_at, speeds_at
from util import concurrence, local_damping_evolve, open_model, random_density

SLD = MetricKind.SLD
SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestParams:
    def test_closed_requires_positive_omega(self):
        with pytest.raises(ValueError, match=r"^omega must be positive, got -1\.0$"):
            trajectory_from_key("closed-1q", omega=-1.0)

    def test_closed_requires_finite_omega(self):
        with pytest.raises(ValueError, match=r"^omega must be finite, got inf$"):
            trajectory_from_key("closed-1q", omega=math.inf)

    def test_closed_alpha_range(self):
        for key in ("closed-1q", "closed-2q-aligned", "closed-2q-anti"):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1\.2$"):
                trajectory_from_key(key, alpha=1.2)
            with pytest.raises(ValueError, match=r"got -0\.5$"):
                trajectory_from_key(key, alpha=np.array([-0.5, 0.5]))

    def test_open_requires_exactly_one_width_choice(self):
        with pytest.raises(ValueError, match="exactly one"):
            OpenSystemParams(alpha=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            OpenSystemParams(alpha=1.0, Gamma=1.0, markovian_limit=True)

    def test_open_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            OpenSystemParams(alpha=1.2, Gamma=1.0)

    def test_kappa_relation_oscillatory(self):
        # kappa^2 + Gamma^2 = 2 Gamma (in units of gamma0) in the oscillatory branch
        p = OpenSystemParams(alpha=1.0, Gamma=0.7)
        assert p.branch() == "oscillatory"
        assert p.kappa**2 + p.Gamma**2 == pytest.approx(2 * p.Gamma, abs=1e-10)

    def test_width_must_be_positive_and_finite(self):
        with pytest.raises(ValueError, match=r"^Gamma must be positive, got -1\.0$"):
            OpenSystemParams(Gamma=-1.0)
        # an infinite width has one spelling, the Markovian-limit flag
        with pytest.raises(ValueError, match="markovian_limit"):
            OpenSystemParams(Gamma=math.inf)

    def test_branch_selection(self):
        assert OpenSystemParams(Gamma=0.5).branch() == "oscillatory"
        assert OpenSystemParams(Gamma=5.0).branch() == "hyperbolic"
        assert OpenSystemParams(Gamma=2.0).branch() == "critical"
        assert OpenSystemParams(markovian_limit=True).branch() == "markovian"

    @pytest.mark.parametrize("width", [1e-30, 5e-25])
    def test_only_two_is_critical(self, width):
        # kappa = sqrt(2 Gamma - Gamma^2) is about 1e-15 here, yet the width
        # is far from 2: the oscillatory branch holds, and the closed form
        # takes its small-width value sqrt(Gamma / 2) (alpha = 1)
        p = OpenSystemParams(alpha=1.0, Gamma=width)
        assert p.branch() == "oscillatory"
        assert open_qubit_speed_analytic(p, 10.0) == pytest.approx(math.sqrt(width / 2), rel=1e-9)
        assert amplitude_factor(p, np.array([10.0]))[0] == amplitude_factor(p, 10.0)
        critical = OpenSystemParams(alpha=1.0, Gamma=2.0)
        assert critical.branch() == "critical"
        assert math.isfinite(open_qubit_speed_analytic(critical, 10.0))
        assert math.isfinite(open_qubit_speed_analytic(critical, 1e-3))


    def test_kappa_needs_a_finite_width(self):
        with pytest.raises(ValueError, match="^kappa is undefined in the Markovian limit$"):
            OpenSystemParams(markovian_limit=True).kappa

    @pytest.mark.parametrize("bath", [{"Gamma": 0.5}, {"Gamma": 2.0}, {"Gamma": 10.0}, {"markovian_limit": True}])
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_helpers_take_one_time_check(self, bath, t):
        """Every public helper rejects a negative, NaN or infinite time with
        the trajectories' message, on every branch, as a float and (where it
        takes one) in an array, before any branch evaluates it."""
        p = OpenSystemParams(alpha=0.6, **bath)
        message = f"^t = {t} outside trajectory range \\[0, inf\\)$"
        for func in (amplitude_factor, amplitude_factor_dot, population_factor, population_factor_dot):
            for times in (t, np.array([1.0, t, 2.0])):
                with pytest.raises(ValueError, match=message):
                    func(p, times)
        for func in (population_complement, open_qubit_speed_analytic, open_two_qubit_speed_analytic):
            with pytest.raises(ValueError, match=message):
                func(p, t)
        with pytest.raises(ValueError, match=message):
            markovian_two_qubit_speed(0.5, t)

    def test_negative_time_in_an_array_is_named(self):
        with pytest.raises(ValueError, match=r"^t = -2\.0 outside trajectory range \[0, inf\)$"):
            amplitude_factor(OpenSystemParams(Gamma=0.5), np.array([1.0, -2.0]))

    @pytest.mark.parametrize("width", [1e17, 1e200, 1e300])
    def test_kappa_at_large_widths(self, width):
        # kappa^2 = Gamma^2 - 2 Gamma: neither overflow nor a lost 2 Gamma
        kappa = OpenSystemParams(Gamma=width).kappa
        assert kappa == pytest.approx(width * math.sqrt(1.0 - 2.0 / width), rel=1e-15)


class TestLargeWidths:
    """A finite width far above gamma0 is the Markovian limit to rounding."""

    TIMES = np.array([0.5, 1.0, 2.0, 7.0, 30.0])

    def test_amplitude_decays_like_the_markovian_limit(self):
        limit = OpenSystemParams(markovian_limit=True)
        for width in (1e17, 1e200, 1e300):
            wide = OpenSystemParams(Gamma=width)
            np.testing.assert_allclose(
                population_factor(wide, self.TIMES), population_factor(limit, self.TIMES), rtol=1e-12
            )
            np.testing.assert_allclose(
                population_factor_dot(wide, self.TIMES), population_factor_dot(limit, self.TIMES), rtol=1e-12
            )

    @pytest.mark.parametrize("key", ["open-1q", "open-2q-aligned", "open-2q-anti"])
    def test_speeds_match_the_markovian_limit(self, key):
        limit = trajectory_from_key(key, alpha=0.8, markovian_limit=True)
        for width in (1e17, 1e200, 1e300):
            wide = trajectory_from_key(key, alpha=0.8, Gamma_over_gamma0=width)
            for metric in MetricKind:
                np.testing.assert_allclose(
                    speeds_at(wide, self.TIMES, metric),
                    speeds_at(limit, self.TIMES, metric),
                    rtol=1e-12,
                )


class TestClosedTrajectories:
    def test_excited_state_never_moves(self):
        traj = trajectory_from_key("closed-1q", alpha=1.0)
        expected = np.diag([1.0, 0.0]).astype(complex)
        for t in (0.0, 1.0, 5.0):
            np.testing.assert_allclose(traj.state_at(t), expected, atol=1e-14)

    def test_balanced_superposition_at_time_zero(self):
        traj = trajectory_from_key("closed-1q", alpha=SQRT_HALF)
        np.testing.assert_allclose(traj.state_at(0.0), 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_speed_oracle(self):
        for alpha, omega in [(0.6, 1.0), (0.3, 2.5), (SQRT_HALF, 0.7)]:
            traj = trajectory_from_key("closed-1q", alpha=alpha, omega=omega)
            expected = alpha * math.sqrt(1 - alpha * alpha) * omega
            assert speed_at(traj, 1.1, SLD) == pytest.approx(expected, rel=1e-10)

    def test_aligned_pair_speed(self):
        traj = trajectory_from_key("closed-2q-aligned", alpha=SQRT_HALF, omega=1.0)
        assert speed_at(traj, 0.7, SLD) == pytest.approx(1.0, rel=1e-10)

    def test_anti_aligned_pair_is_frozen(self):
        traj = trajectory_from_key("closed-2q-anti", alpha=0.6, omega=1.0)
        for t in (0.0, 1.3, 6.0):
            np.testing.assert_allclose(traj.state_at(t), traj.state_at(0.0), atol=1e-14)
            assert speed_at(traj, t, SLD) <= 1e-12

    def test_aligned_basis_state_is_frozen(self):
        traj = trajectory_from_key("closed-2q-aligned", alpha=0.0)
        assert speed_at(traj, 2.0, SLD) <= 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'closed-2q-sideways'"):
            trajectory_from_key("closed-2q-sideways", alpha=0.5)


class TestPopulationFactor:
    @pytest.mark.parametrize("gamma_ratio", [0.1, 0.5, 2.0, 5.0, 50.0])
    def test_starts_at_one(self, gamma_ratio):
        p = OpenSystemParams(Gamma=gamma_ratio)
        assert population_factor(p, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_markovian_value(self):
        p = OpenSystemParams(markovian_limit=True)
        assert population_factor(p, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_first_zero_in_memory_regime(self):
        p = OpenSystemParams(Gamma=0.1)
        kappa = math.sqrt(0.19)
        tau1 = 2 * (math.pi - math.atan(kappa / 0.1)) / kappa
        assert population_factor(p, tau1) == pytest.approx(0.0, abs=1e-9)

    def test_branch_continuity_at_critical_ratio(self):
        just_below = OpenSystemParams(Gamma=2.0 - 1e-8)
        critical = OpenSystemParams(Gamma=2.0)
        just_above = OpenSystemParams(Gamma=2.0 + 1e-8)
        for t in np.linspace(0.0, 10.0, 40):
            t = float(t)
            lo = population_factor(just_below, t)
            mid = population_factor(critical, t)
            hi = population_factor(just_above, t)
            assert lo == pytest.approx(mid, abs=1e-6)
            assert hi == pytest.approx(mid, abs=1e-6)

    def test_bounded_over_parameter_grid(self):
        for gamma_ratio in np.logspace(-2, 2, 17):
            p = OpenSystemParams(Gamma=float(gamma_ratio))
            for t in np.linspace(0.0, 50.0, 101):
                value = population_factor(p, float(t))
                assert 0.0 <= value <= 1.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="outside trajectory range"):
            population_factor(OpenSystemParams(Gamma=1.0), -0.1)


class TestPopulationFactorDot:
    @pytest.mark.parametrize("gamma_ratio", [0.1, 1.0, 2.0, 8.0])
    def test_zero_slope_at_start_for_finite_width(self, gamma_ratio):
        p = OpenSystemParams(Gamma=gamma_ratio)
        assert population_factor_dot(p, 0.0) == pytest.approx(0.0, abs=1e-14)
        h = 1e-6
        fd = (population_factor(p, h) - population_factor(p, 0.0)) / h
        assert abs(fd) <= 1e-5

    def test_markovian_slope(self):
        p = OpenSystemParams(markovian_limit=True)
        assert population_factor_dot(p, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-13)

    def test_zero_at_first_revival_peak(self):
        p = OpenSystemParams(Gamma=0.1)
        tau1_prime = 2 * math.pi / math.sqrt(0.19)
        assert population_factor_dot(p, tau1_prime) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("gamma_ratio", [0.1, 0.9, 2.0, 2.0 + 1e-8, 10.0])
    def test_matches_finite_difference(self, gamma_ratio):
        p = OpenSystemParams(Gamma=gamma_ratio)
        h = 1e-6
        for t in np.linspace(h, 30.0, 73):
            t = float(t)
            fd = (population_factor(p, t + h) - population_factor(p, t - h)) / (2 * h)
            assert population_factor_dot(p, t) == pytest.approx(fd, abs=1e-7)

    def test_markovian_matches_finite_difference(self):
        p = OpenSystemParams(markovian_limit=True)
        h = 1e-6
        for t in np.linspace(h, 20.0, 41):
            t = float(t)
            fd = (population_factor(p, t + h) - population_factor(p, t - h)) / (2 * h)
            assert population_factor_dot(p, t) == pytest.approx(fd, abs=1e-7)


class TestPopulationComplement:
    @pytest.mark.parametrize("gamma_ratio", [0.1, 2.0, 7.0])
    def test_adds_to_one_at_moderate_times(self, gamma_ratio):
        p = OpenSystemParams(Gamma=gamma_ratio)
        for t in np.linspace(0.05, 20.0, 50):
            t = float(t)
            total = population_factor(p, t) + population_complement(p, t)
            assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("gamma_ratio", [0.1, 2.0, 7.0])
    def test_accurate_where_subtraction_cancels(self, gamma_ratio):
        # 1 - P ~ Gamma t^2 / 2 as t -> 0 (units of gamma0)
        p = OpenSystemParams(Gamma=gamma_ratio)
        t = 1e-7
        leading = 0.5 * gamma_ratio * t * t
        assert population_complement(p, t) == pytest.approx(leading, rel=1e-5)

    @pytest.mark.parametrize(
        "width", [1e-12, 1e-6, 0.01, 0.1, 0.5, 1.9, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 2.1, 10.0, 20.0, 1e6, 1e17, None]
    )
    def test_in_the_unit_interval_on_the_whole_grid(self, width):
        """ROADMAP item 2's widths and times (None is Markovian). A negative
        bracket (G_t < 0 at P_t >= 1/2: Gamma/gamma0 = 0.01, t = 49) takes
        1 - P_t directly, and an argument past sinh's overflow (1e6 and
        1e17) the split form of the bracket; nothing raises, and the direct
        subtraction agrees wherever it is at least 0.01."""
        p = OpenSystemParams(Gamma=width, markovian_limit=width is None)
        for t in (1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.3, 1.0, 3.0, 8.0, 20.0, 49.0):
            value = population_complement(p, t)
            assert 0.0 < value <= 1.0
            direct = 1.0 - population_factor(p, t)
            if direct >= 0.01:
                assert value == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_closed_forms_at_a_negative_bracket(self):
        p = OpenSystemParams(alpha=0.6, Gamma=0.01)
        assert amplitude_factor(p, 49.0) < 0.0 and population_factor(p, 49.0) > 0.5
        # 1 - P_t = 0.42 keeps its digits by subtraction too
        assert population_complement(p, 49.0) == pytest.approx(1.0 - population_factor(p, 49.0), rel=2.0**-51)
        for closed_form in (open_qubit_speed_analytic, open_two_qubit_speed_analytic):
            assert 0.0 < closed_form(p, 49.0) < math.inf


class TestChannels:
    def test_identity_at_unit_population(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(local_damping_evolve(rho, 1.0), rho, atol=1e-14)

    def test_excited_state_half_damped(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            local_damping_evolve(rho, 0.5), np.diag([0.5, 0.5]), atol=1e-14
        )

    def test_coherence_scales_with_root(self):
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        evolved = local_damping_evolve(rho, 0.25)
        assert evolved[0, 1] == pytest.approx(0.15, abs=1e-14)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            rho = random_density(rng, 2)
            for pop in np.linspace(0.0, 1.0, 5):
                evolved = local_damping_evolve(rho, float(pop))
                assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-14)
                assert np.linalg.eigvalsh(evolved)[0] >= -1e-12

    def test_rejects_population_outside_range(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="0, 1"):
            local_damping_evolve(rho, 1.5)
        with pytest.raises(ValueError, match="0, 1"):
            local_damping_evolve(np.eye(4) / 4, -0.1, n=2)

    def test_single_qubit_reduction(self):
        # [[r11, r10], [r01, r00]] -> [[r11 P, r10 sqrt(P)], [r01 sqrt(P), 1 - r11 P]]
        rng = np.random.default_rng(47)
        rho = random_density(rng, 2)
        for pop in (0.0, 0.3, 0.8, 1.0):
            root = math.sqrt(pop)
            expected = np.array(
                [[rho[0, 0] * pop, rho[0, 1] * root], [rho[1, 0] * root, 1 - rho[0, 0] * pop]]
            )
            np.testing.assert_allclose(local_damping_evolve(rho, pop, n=1), expected, atol=1e-14)

    def test_rejects_three_qubits(self):
        with pytest.raises(ValueError, match="1 or 2"):
            local_damping_evolve(np.eye(8) / 8, 0.5, n=3)

    def test_aligned_pair_known_matrix(self):
        alpha = SQRT_HALF
        vec = np.array([alpha, 0, 0, alpha], dtype=complex)
        evolved = local_damping_evolve(np.outer(vec, vec), 0.5, n=2)
        expected = np.diag([0.125, 0.125, 0.125, 0.625]).astype(complex)
        expected[0, 3] = expected[3, 0] = 0.25
        np.testing.assert_allclose(evolved, expected, atol=1e-14)

    def test_aligned_pair_matrix_over_grid(self):
        # diag(a^2 P^2, a^2 P(1-P), a^2 P(1-P), 1 - 2 a^2 P + a^2 P^2),
        # corners a sqrt(1-a^2) P
        for alpha in np.linspace(0.0, 1.0, 9):
            beta = math.sqrt(1 - alpha * alpha)
            vec = np.array([alpha, 0, 0, beta], dtype=complex)
            for pop in np.linspace(0.0, 1.0, 9):
                evolved = local_damping_evolve(np.outer(vec, vec), float(pop), n=2)
                a2 = alpha * alpha
                expected = np.diag(
                    [
                        a2 * pop * pop,
                        a2 * pop * (1 - pop),
                        a2 * pop * (1 - pop),
                        1 - 2 * a2 * pop + a2 * pop * pop,
                    ]
                ).astype(complex)
                expected[0, 3] = expected[3, 0] = alpha * beta * pop
                assert np.max(np.abs(evolved - expected)) <= 1e-12

    def test_anti_pair_spectrum(self):
        # P |phi0><phi0| + (1-P) |00><00|: eigenvalues {P, 1-P}, frozen eigenvectors
        alpha = 0.6
        beta = 0.8
        vec = np.array([0, alpha, beta, 0], dtype=complex)
        rho0 = np.outer(vec, vec)
        for pop in (0.2, 0.5, 0.9):
            evolved = local_damping_evolve(rho0, pop, n=2)
            values = np.linalg.eigvalsh(evolved)
            nonzero = sorted(v for v in values if v > 1e-12)
            assert nonzero == pytest.approx(sorted([pop, 1 - pop]), abs=1e-12)
            direct = pop * rho0
            direct[3, 3] += 1 - pop
            np.testing.assert_allclose(evolved, direct, atol=1e-14)


class TestOpenTrajectories:
    def test_states_are_valid_densities(self):
        cases = [
            trajectory_from_key("closed-1q", alpha=0.6, omega=1.3),
            trajectory_from_key("closed-2q-aligned", alpha=0.7),
            open_model("open-1q", OpenSystemParams(alpha=0.7, Gamma=0.3)),
            open_model("open-1q", OpenSystemParams(alpha=0.4, markovian_limit=True)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.8, Gamma=4.0)),
            open_model("open-2q-anti", OpenSystemParams(alpha=0.5, Gamma=0.6)),
        ]
        for traj in cases:
            for t in np.linspace(0.0, 20.0, 21):
                rho = traj.state_at(float(t))
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_derivatives_are_traceless(self):
        cases = [
            trajectory_from_key("closed-1q", alpha=0.6, omega=1.3),
            trajectory_from_key("closed-2q-aligned", alpha=0.7),
            open_model("open-1q", OpenSystemParams(alpha=0.7, Gamma=0.3)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.8, Gamma=4.0)),
            open_model("open-2q-anti", OpenSystemParams(alpha=0.5, Gamma=0.6)),
        ]
        for traj in cases:
            for t in np.linspace(0.0, 12.0, 13):
                assert abs(np.trace(traj.derivative_at(float(t)))) <= 1e-10

    def test_derivative_matches_finite_difference(self):
        cases = [
            open_model("open-1q", OpenSystemParams(alpha=0.7, Gamma=0.3)),
            open_model("open-2q-aligned", OpenSystemParams(alpha=0.8, Gamma=4.0)),
            open_model("open-2q-anti", OpenSystemParams(alpha=0.5, Gamma=0.6)),
        ]
        h = 1e-6
        for traj in cases:
            for t in (0.4, 2.2, 7.7):
                fd = (traj.state_at(t + h) - traj.state_at(t - h)) / (2 * h)
                np.testing.assert_allclose(traj.derivative_at(t), fd, atol=1e-7)

    def test_single_qubit_matches_channel_while_amplitude_positive(self):
        params = OpenSystemParams(alpha=0.6, Gamma=0.1)
        traj = open_model("open-1q", params)
        beta = 0.8
        rho0 = np.array([[0.36, 0.6 * beta], [0.6 * beta, 0.64]], dtype=complex)
        for t in (0.0, 1.0, 4.0):  # all below the first zero of the amplitude
            assert amplitude_factor(params, t) >= 0.0
            np.testing.assert_allclose(
                traj.state_at(t),
                local_damping_evolve(rho0, population_factor(params, t)),
                atol=1e-12,
            )

    def test_two_qubit_states_come_from_local_channel(self):
        params = OpenSystemParams(alpha=0.6, Gamma=1.5)
        vec = np.array([0.6, 0, 0, 0.8], dtype=complex)
        traj = open_model("open-2q-aligned", params)
        for t in (0.5, 2.0):
            np.testing.assert_allclose(
                traj.state_at(t),
                local_damping_evolve(np.outer(vec, vec), population_factor(params, t), 2),
                atol=1e-12,
            )


class TestAnalyticSpeeds:
    def test_single_qubit_initial_limit(self):
        p = OpenSystemParams(alpha=1.0, Gamma=10.0)
        assert open_qubit_speed_analytic(p, 0.0) == pytest.approx(
            math.sqrt(5.0), rel=1e-12
        )

    def test_ground_state_is_stationary(self):
        p = OpenSystemParams(alpha=0.0, Gamma=1.0)
        for t in (0.0, 1.0, 5.0):
            assert open_qubit_speed_analytic(p, t) == 0.0

    def test_single_qubit_markovian_value(self):
        p = OpenSystemParams(alpha=1.0, markovian_limit=True)
        expected = 0.5 / math.sqrt(math.e - 1.0)
        assert open_qubit_speed_analytic(p, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_single_qubit_markovian_diverges_at_zero(self):
        p = OpenSystemParams(alpha=1.0, markovian_limit=True)
        assert open_qubit_speed_analytic(p, 0.0) == math.inf

    def test_single_qubit_finite_at_population_zero(self):
        # at the touch points of P_t the speed limit is alpha |dG/dt|
        p = OpenSystemParams(alpha=0.7, Gamma=0.1)
        kappa = math.sqrt(0.19)
        tau1 = 2 * (math.pi - math.atan(kappa / 0.1)) / kappa
        value = open_qubit_speed_analytic(p, tau1)
        expected = 0.7 * (0.1 / kappa) * math.exp(-0.05 * tau1) * abs(
            math.sin(kappa * tau1 / 2)
        )
        assert value == pytest.approx(expected, rel=1e-10)
        assert math.isfinite(value)

    def test_two_qubit_initial_limit(self):
        p = OpenSystemParams(alpha=SQRT_HALF, Gamma=0.1)
        assert open_two_qubit_speed_analytic(p, 0.0) == pytest.approx(
            math.sqrt(0.05), rel=1e-12
        )

    def test_two_qubit_ground_state(self):
        p = OpenSystemParams(alpha=0.0, Gamma=0.1)
        assert open_two_qubit_speed_analytic(p, 3.0) == 0.0

    def test_two_qubit_markovian_matches_concurrence_form(self):
        p = OpenSystemParams(alpha=SQRT_HALF, markovian_limit=True)
        for t in (0.5, 1.0, 10.0):
            assert open_two_qubit_speed_analytic(p, t) == pytest.approx(
                markovian_two_qubit_speed(1.0, t), rel=1e-12
            )

    def test_kernel_sum_with_numeric_derivative(self):
        # without the analytic derivative the agreement degrades to the
        # finite-difference floor but stays within 1e-4 relative
        from util import factor_speeds, without_analytic_derivative

        for gamma_ratio in (0.1, 1.0, 10.0):
            params = OpenSystemParams(alpha=0.7, Gamma=gamma_ratio)
            traj = without_analytic_derivative(open_model("open-1q", params))
            for t in np.linspace(0.05, 8.0, 40):
                t = float(t)
                pop = population_factor(params, t)
                if pop < 1e-3 or pop > 1.0 - 1e-3:
                    continue
                expected = open_qubit_speed_analytic(params, t)
                assert float(factor_speeds(traj, t, SLD)) == pytest.approx(expected, rel=1e-4)


class TestMarkovianTwoQubitSpeed:
    def test_uncorrelated_state_never_moves(self):
        for t in (0.1, 1.0, 10.0):
            assert markovian_two_qubit_speed(0.0, t) == 0.0

    def test_known_values(self):
        # independent evaluation: x = 1 - sqrt(1 - C^2), P = e^-t,
        # S = 0.5 sqrt(x P (1 - 2P + 2P^2) / ((1-P)(1 - x P (1-P))))
        assert markovian_two_qubit_speed(1.0, 1.0) == pytest.approx(
            0.3184469910496787, abs=1e-12
        )
        assert markovian_two_qubit_speed(0.6, 1.0) == pytest.approx(
            0.12776753270551977, abs=1e-12
        )

    def test_diverges_at_time_zero(self):
        # inf like every Markovian-limit speed at t = 0, but 0 for the
        # product state C = 0, which is at rest
        assert markovian_two_qubit_speed(0.5, 0.0) == math.inf
        assert markovian_two_qubit_speed(0.0, 0.0) == 0.0
        values = markovian_two_qubit_speed(np.array([0.0, 0.5]), 0.0)
        np.testing.assert_array_equal(values, [0.0, math.inf])

    def test_rejects_bad_concurrence(self):
        with pytest.raises(ValueError, match="concurrence"):
            markovian_two_qubit_speed(1.2, 1.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-320, 1e-310])
    def test_finite_at_subnormal_times(self, t):
        """Where 1 - P = -expm1(-t) is the subnormal t itself, the speed is
        about 0.5 sqrt(x / t): finite, with no overflow in the quotient."""
        concurrences = np.array([0.0, 0.3, 0.6, 1.0])
        x = 1.0 - np.sqrt(1.0 - concurrences**2)
        want = 0.5 * np.sqrt(x) / math.sqrt(t)
        got = markovian_two_qubit_speed(concurrences, t)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert [markovian_two_qubit_speed(float(c), t) for c in concurrences] == got.tolist()
        if t == 5e-324:
            assert markovian_two_qubit_speed(0.3, t) == pytest.approx(4.83e160, rel=1e-3)

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_strictly_increasing_in_concurrence(self, t):
        grid = np.linspace(0.05, 0.999, 120)
        values = [markovian_two_qubit_speed(float(c), t) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_alpha_from_concurrence_round_trip(self):
        for c in np.linspace(0.0, 1.0, 11):
            alpha = alpha_from_concurrence(float(c))
            assert alpha <= SQRT_HALF + 1e-12
            assert 2 * alpha * math.sqrt(1 - alpha * alpha) == pytest.approx(
                float(c), abs=1e-12
            )
            vec = np.array([alpha, 0, 0, math.sqrt(1 - alpha * alpha)], dtype=complex)
            assert concurrence(np.outer(vec, vec)) == pytest.approx(float(c), abs=1e-12)


class TestAntiAlignedOpenPair:
    def test_speed_is_alpha_independent(self):
        t = 1.3
        values = []
        for alpha in np.linspace(0.1, 0.9, 9):
            traj = open_model("open-2q-anti", OpenSystemParams(alpha=float(alpha), Gamma=0.5))
            values.append(speed_at(traj, t, SLD))
        assert max(values) - min(values) <= 1e-10

    def test_speed_matches_population_form(self):
        params = OpenSystemParams(alpha=0.4, Gamma=0.5)
        traj = open_model("open-2q-anti", params)
        for t in (0.5, 1.3, 3.0):
            pop = population_factor(params, t)
            slope = population_factor_dot(params, t)
            expected = abs(slope) / (2 * math.sqrt(pop * (1 - pop)))
            assert speed_at(traj, t, SLD) == pytest.approx(expected, abs=1e-8)


class TestConcurrence:
    def test_bell_state(self):
        vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert concurrence(np.outer(vec, vec)) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        vec = np.array([0, 1, 0, 0], dtype=complex)
        assert concurrence(np.outer(vec, vec)) == pytest.approx(0.0, abs=1e-10)

    def test_aligned_pure_state(self):
        vec = np.array([0.6, 0, 0, 0.8], dtype=complex)
        assert concurrence(np.outer(vec, vec)) == pytest.approx(0.96, abs=1e-10)

    def test_matches_two_alpha_beta_over_grid(self):
        for alpha in np.linspace(0.05, 0.95, 10):
            beta = math.sqrt(1 - alpha * alpha)
            vec = np.array([alpha, 0, 0, beta], dtype=complex)
            assert concurrence(np.outer(vec, vec)) == pytest.approx(
                2 * alpha * beta, abs=1e-10
            )


class TestTrajectoryRegistry:
    def test_all_keys_build(self):
        for key in (
            "closed-1q",
            "closed-2q-aligned",
            "closed-2q-anti",
            "open-1q",
            "open-2q-aligned",
            "open-2q-anti",
        ):
            traj = trajectory_from_key(key, alpha=0.6, Gamma_over_gamma0=1.0)
            assert traj.dim in (2, 4)

    def test_unknown_key_lists_options(self):
        with pytest.raises(ValueError, match="closed-1q"):
            trajectory_from_key("open-3q")

    def test_open_model_needs_width(self):
        with pytest.raises(ValueError, match="Gamma_over_gamma0"):
            trajectory_from_key("open-1q", alpha=1.0)

    def test_markovian_flag(self):
        traj = trajectory_from_key("open-1q", alpha=1.0, markovian_limit=True)
        assert traj.params["markovian_limit"] == 1.0 and traj.speed_at_zero is None
        assert speed_at(traj, 0.0) == math.inf

    @pytest.mark.parametrize("width", [math.inf, np.array([0.5, math.inf])])
    def test_infinite_width_names_the_markovian_flag(self, width):
        with pytest.raises(ValueError, match="markovian_limit"):
            trajectory_from_key("open-1q", Gamma_over_gamma0=width)
