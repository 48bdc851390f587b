"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit PASS lines).
"""

import math

import numpy as np
import pytest

from qevspeed.metrics import MetricKind
from qevspeed.models import (
    OpenSystemParams,
    alpha_from_concurrence,
    concurrence,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_complement,
    population_factor,
    population_factor_dot,
    trajectory_from_key,
)
from qevspeed.analysis import memory_boundaries, speedup_boundaries, speedup_equation
from qevspeed.speed import speed_at, speed_curve
from util import (
    DegenerateSpectrumError,
    conjugate_trajectory,
    local_damping_evolve,
    open_model,
    random_unitary,
    speed_spectral_form,
    speedup_measure,
    without_analytic_derivative,
)

SLD = MetricKind.SLD
WY = MetricKind.WY
SQRT_HALF = 1.0 / math.sqrt(2.0)

ALPHA_GRID_10 = np.linspace(0.05, 0.95, 10)
OMEGA_GRID_10 = np.linspace(0.3, 3.0, 10)
TIME_GRID_10 = np.linspace(0.0, 9.0, 10)


def _report(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS: {message}")


def test_c01_closed_qubit_speed_and_uniformity():
    worst = 0.0
    for alpha in ALPHA_GRID_10:
        beta = math.sqrt(1.0 - alpha * alpha)
        for omega in OMEGA_GRID_10:
            traj = trajectory_from_key("closed-1q", alpha=alpha, omega=omega)
            expected = alpha * beta * omega
            for t in TIME_GRID_10:
                value = speed_at(traj, float(t), SLD)
                worst = max(worst, abs(value - expected) / expected)
            slope = speedup_measure(lambda x: speed_at(traj, x, SLD), 1.0)
            assert abs(slope) <= 1e-8
    assert worst <= 1e-6
    _report(1, f"closed 1-qubit speed = |ab|w (worst rel {worst:.2e}), dS/dt = 0")


def test_c02_aligned_pair_speed_and_concurrence_response():
    worst = 0.0
    for alpha in np.linspace(0.1, 0.9, 6):
        beta = math.sqrt(1.0 - alpha * alpha)
        for omega in (0.7, 1.0, 2.0):
            traj = trajectory_from_key("closed-2q-aligned", alpha=alpha, omega=omega)
            expected = 2.0 * alpha * beta * omega
            for t in np.linspace(0.0, 6.0, 6):
                value = speed_at(traj, float(t), SLD)
                worst = max(worst, abs(value - expected) / expected)
    assert worst <= 1e-6

    def detector(omega):
        def speed_of_c(c):
            traj = trajectory_from_key(
                "closed-2q-aligned", alpha=alpha_from_concurrence(c), omega=omega
            )
            return speed_at(traj, 1.2, SLD)

        return speed_of_c

    for omega in (0.7, 1.0, 2.0):
        for c0 in (0.2, 0.5, 0.8):
            slope = speedup_measure(detector(omega), c0)
            assert slope == pytest.approx(omega, abs=1e-6)
    _report(2, f"aligned pair speed = C*w (worst rel {worst:.2e}), dS/dC = w")


def test_c03_anti_aligned_pair_never_moves():
    for alpha in np.linspace(0.0, 1.0, 11):
        traj = trajectory_from_key("closed-2q-anti", alpha=alpha, omega=1.3)
        for t in np.linspace(0.0, 8.0, 9):
            assert speed_at(traj, float(t), SLD) <= 1e-10
    _report(3, "anti-aligned pair speed <= 1e-10 for all alpha, t")


def test_c04_wy_to_sld_ratio_on_pure_trajectories():
    cases = [
        trajectory_from_key("closed-1q", alpha=0.6, omega=1.0),
        trajectory_from_key("closed-1q", alpha=0.35, omega=2.1),
        trajectory_from_key("closed-2q-aligned", alpha=0.8, omega=0.9),
    ]
    for traj in cases:
        for t in np.linspace(0.0, 5.0, 11):
            sld = speed_at(traj, float(t), SLD)
            wy = speed_at(traj, float(t), WY)
            assert wy == pytest.approx(math.sqrt(2.0) * sld, abs=1e-10)
    _report(4, "WY speed = sqrt(2) x SLD speed on pure trajectories")


def test_c05_open_qubit_speed_matches_closed_form():
    checked = 0
    worst = 0.0
    for gamma_ratio in (0.1, 1.0, 10.0):
        for alpha in (0.3, 0.7, 1.0):
            params = OpenSystemParams(alpha=alpha, Gamma=gamma_ratio)
            traj = open_model("open-1q", params)
            for t in np.linspace(0.01, 10.0, 200):
                t = float(t)
                pop = population_factor(params, t)
                if pop < 1e-3 or pop > 1.0 - 1e-3:
                    continue
                expected = open_qubit_speed_analytic(params, t)
                value = speed_at(traj, t, SLD)
                worst = max(worst, abs(value - expected) / expected)
                checked += 1
    assert checked > 1000
    assert worst <= 1e-6
    _report(5, f"open-qubit kernel sum vs closed form: {checked} samples, worst rel {worst:.2e}")


def test_c06_initial_speed_limits_by_extrapolation():
    h = 1e-3
    for gamma_ratio in (0.1, 1.0, 10.0):
        for alpha in (0.3, 0.7, 1.0):
            traj = open_model("open-1q", OpenSystemParams(alpha=alpha, Gamma=gamma_ratio))
            extrapolated = 2.0 * speed_at(traj, h, SLD) - speed_at(traj, 2.0 * h, SLD)
            expected = alpha * alpha * math.sqrt(gamma_ratio / 2.0)
            assert extrapolated == pytest.approx(expected, rel=1e-3)
        for alpha in (0.5, SQRT_HALF, 0.9):
            traj = open_model("open-2q-aligned", OpenSystemParams(alpha=alpha, Gamma=gamma_ratio))
            extrapolated = 2.0 * speed_at(traj, h, SLD) - speed_at(traj, 2.0 * h, SLD)
            expected = alpha * math.sqrt(gamma_ratio)
            assert extrapolated == pytest.approx(expected, rel=1e-3)
    _report(6, "t->0 speeds extrapolate to a^2 sqrt(G/2) and a sqrt(G) within 1e-3")


def test_c07_memoryless_regime_decelerates_monotonically():
    traj = open_model("open-1q", OpenSystemParams(alpha=1.0, Gamma=10.0))
    curve = speed_curve(traj, np.linspace(0.025, 10.0, 400), SLD)
    assert np.all(curve.slopes[1:-1] < 0.0)
    _report(7, "Gamma/gamma0 = 10: dS/dt < 0 at every interior grid point")


def test_c08_memory_regime_region_boundaries():
    params = OpenSystemParams(alpha=1.0, Gamma=0.1)
    (tau, tau_prime), = memory_boundaries(params, 1)
    # independently evaluated closed forms (kappa = sqrt(0.19)):
    # tau_1 = 2 (pi - arctan(kappa/Gamma)) / kappa, tau_1' = 2 pi / kappa
    assert tau == pytest.approx(8.242034311692072, abs=1e-4)
    assert tau_prime == pytest.approx(14.414615682913359, abs=1e-4)
    (start, tau_dprime), = speedup_boundaries(params, 1)
    assert start == pytest.approx(tau_prime, abs=1e-12)
    assert abs(speedup_equation(params, tau_dprime)) <= 1e-10

    traj = open_model("open-1q", params, horizon=60.0)

    def slope(t):
        return speedup_measure(lambda x: speed_at(traj, x, SLD), t)

    midpoint = 0.5 * (tau_prime + tau_dprime)
    assert slope(midpoint) > 0.0
    assert slope(tau_dprime + 0.1) < 0.0
    _report(8, f"tau_1 = {tau:.5f}, tau_1' = {tau_prime:.5f}, residual-checked tau_1'' = {tau_dprime:.5f}")


def test_c09_width_sweep_speedup_pattern():
    omegas = np.linspace(0.02, 3.0, 300)

    def slope_at(omega_ratio, t):
        def speed_of(om):
            return open_qubit_speed_analytic(OpenSystemParams(alpha=1.0, Gamma=1.0 / om), t)

        return speedup_measure(speed_of, float(omega_ratio))

    slopes_t0 = np.array([slope_at(om, 0.0) for om in omegas])
    assert np.all(slopes_t0 < 0.0)

    slopes_t1 = np.array([slope_at(om, 1.0) for om in omegas])
    assert np.any((slopes_t1 > 0.0) & (omegas < 0.5))

    for t in (5.0, 10.0):
        slopes = np.array([slope_at(om, t) for om in omegas])
        positive = omegas[slopes > 0.0]
        assert positive.size > 0
        assert np.all(positive > 0.5)
    _report(9, "width sweep: early speedup reaches the memoryless band, late speedup does not")


def test_c10_locally_damped_pair_matrix_and_speed():
    worst_entry = 0.0
    for alpha in np.linspace(0.0, 1.0, 11):
        beta = math.sqrt(1.0 - alpha * alpha)
        vec = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
        rho0 = np.outer(vec, vec)
        for pop in np.linspace(0.0, 1.0, 11):
            pop = float(pop)
            evolved = local_damping_evolve(rho0, pop, n=2)
            a2 = alpha * alpha
            expected = np.diag(
                [
                    a2 * pop * pop,
                    a2 * pop * (1.0 - pop),
                    a2 * pop * (1.0 - pop),
                    1.0 - 2.0 * a2 * pop + a2 * pop * pop,
                ]
            ).astype(complex)
            expected[0, 3] = expected[3, 0] = alpha * beta * pop
            worst_entry = max(worst_entry, float(np.max(np.abs(evolved - expected))))
    assert worst_entry <= 1e-12

    worst = 0.0
    for gamma_ratio in (0.1, 1.0, 10.0):
        for alpha in (0.3, SQRT_HALF, 0.95):
            params = OpenSystemParams(alpha=alpha, Gamma=gamma_ratio)
            traj = open_model("open-2q-aligned", params)
            numeric = without_analytic_derivative(traj)
            for t in np.linspace(0.1, 10.0, 34):
                t = float(t)
                pop = population_factor(params, t)
                if pop < 1e-3 or pop > 1.0 - 1e-3:
                    continue
                expected = open_two_qubit_speed_analytic(params, t)
                worst = max(worst, abs(speed_at(traj, t, SLD) - expected) / expected)
                worst = max(worst, abs(speed_at(numeric, t, SLD) - expected) / expected)
    assert worst <= 1e-4
    _report(10, f"pair-damping matrix entrywise {worst_entry:.1e}; speed vs closed form worst rel {worst:.2e}")


def test_c11_markovian_concurrence_speed_values_and_monotonicity():
    assert markovian_two_qubit_speed(1.0, 1.0) == pytest.approx(0.318455, abs=1e-5)
    assert markovian_two_qubit_speed(0.6, 1.0) == pytest.approx(0.127771, abs=1e-5)
    # dual route: the closed form in C agrees with the alpha-parameterized one
    assert markovian_two_qubit_speed(1.0, 1.0) == pytest.approx(
        open_two_qubit_speed_analytic(
            OpenSystemParams(alpha=SQRT_HALF, markovian_limit=True), 1.0
        ),
        rel=1e-12,
    )
    for t in (1.0, 10.0):
        grid = np.linspace(0.05, 0.999, 200)
        values = [markovian_two_qubit_speed(float(c), t) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    _report(11, "Markovian pair: S(C=1)=0.318455, S(C=0.6)=0.127771, strictly increasing in C")


def test_c12_anti_aligned_pair_entanglement_blind():
    t = 1.4
    params_by_alpha = {
        alpha: OpenSystemParams(alpha=float(alpha), Gamma=0.5)
        for alpha in np.linspace(0.1, 0.9, 9)
    }
    speeds = []
    for alpha, params in params_by_alpha.items():
        traj = open_model("open-2q-anti", params)
        speeds.append(speed_at(traj, t, SLD))
    assert max(speeds) - min(speeds) <= 1e-10

    reference = next(iter(params_by_alpha.values()))
    pop = population_factor(reference, t)
    slope = population_factor_dot(reference, t)
    expected = abs(slope) / (2.0 * math.sqrt(pop * (1.0 - pop)))
    for value in speeds:
        assert value == pytest.approx(expected, abs=1e-8)
    _report(12, f"anti-aligned open pair: alpha spread {max(speeds) - min(speeds):.1e}, matches |dP|/2sqrt(P(1-P))")


def test_c13_concurrence_reference_states():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence(np.outer(bell, bell)) == pytest.approx(1.0, abs=1e-10)
    product = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert concurrence(np.outer(product, product)) == pytest.approx(0.0, abs=1e-10)
    for alpha in np.linspace(0.05, 0.95, 10):
        beta = math.sqrt(1.0 - alpha * alpha)
        vec = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
        assert concurrence(np.outer(vec, vec)) == pytest.approx(
            2.0 * alpha * beta, abs=1e-10
        )
    _report(13, "concurrence: Bell = 1, product = 0, aligned = 2|ab|")


def test_c14_kernel_sum_equals_spectral_form():
    cases = {
        "closed-1q": trajectory_from_key("closed-1q", alpha=0.6, omega=1.1),
        "closed-2q-aligned": trajectory_from_key("closed-2q-aligned", alpha=0.7, omega=0.9),
        "closed-2q-anti": trajectory_from_key("closed-2q-anti", alpha=0.6),
        "open-1q": trajectory_from_key("open-1q", alpha=0.8, Gamma_over_gamma0=0.5),
        "open-1q-markovian": trajectory_from_key("open-1q", alpha=1.0, markovian_limit=True),
        "open-2q-anti": trajectory_from_key("open-2q-anti", alpha=0.6, Gamma_over_gamma0=0.5),
    }
    counted = 0
    for name, traj in cases.items():
        compared = 0
        for t in np.linspace(0.3, 6.0, 12):
            t = float(t)
            try:
                spectral = speed_spectral_form(traj, t, SLD)
            except DegenerateSpectrumError:
                continue
            direct = speed_at(traj, t, SLD)
            if direct > 1e-12:
                assert spectral == pytest.approx(direct, rel=1e-6), name
            else:
                assert spectral <= 1e-9
            compared += 1
        assert compared > 0, f"no non-degenerate samples for {name}"
        counted += compared
    # the locally damped aligned pair keeps a degenerate eigenvalue pair at
    # every t, so the spectral-derivative form refuses it by design
    aligned = trajectory_from_key("open-2q-aligned", alpha=0.7, Gamma_over_gamma0=0.5)
    with pytest.raises(DegenerateSpectrumError):
        speed_spectral_form(aligned, 1.0, SLD)
    _report(14, f"kernel sum vs spectral form agree on {counted} non-degenerate samples")


def test_c15_unitary_covariance():
    rng = np.random.default_rng(103)
    cases = [
        trajectory_from_key("closed-1q", alpha=0.6, omega=1.2),
        trajectory_from_key("closed-2q-aligned", alpha=0.7),
        trajectory_from_key("closed-2q-anti", alpha=0.5),
        trajectory_from_key("open-1q", alpha=0.8, Gamma_over_gamma0=0.4),
        trajectory_from_key("open-1q", alpha=1.0, markovian_limit=True),
        trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=3.0),
        trajectory_from_key("open-2q-anti", alpha=0.4, Gamma_over_gamma0=0.7),
    ]
    for traj in cases:
        rotated = conjugate_trajectory(traj, random_unitary(rng, traj.dim))
        for t in np.linspace(0.2, 6.0, 8):
            t = float(t)
            assert speed_at(rotated, t, SLD) == pytest.approx(
                speed_at(traj, t, SLD), abs=1e-10, rel=1e-10
            )
    _report(15, "speed invariant under fixed unitary conjugation (1e-10)")


def test_c16_population_branch_continuity_and_derivative():
    just_below = OpenSystemParams(alpha=1.0, Gamma=2.0 - 1e-8)
    critical = OpenSystemParams(alpha=1.0, Gamma=2.0)
    just_above = OpenSystemParams(alpha=1.0, Gamma=2.0 + 1e-8)
    for t in np.linspace(0.0, 12.0, 49):
        t = float(t)
        mid = population_factor(critical, t)
        assert population_factor(just_below, t) == pytest.approx(mid, abs=1e-6)
        assert population_factor(just_above, t) == pytest.approx(mid, abs=1e-6)

    h = 1e-6
    for gamma_ratio in (0.1, 0.9, 2.0 - 1e-8, 2.0, 2.0 + 1e-8, 10.0):
        params = OpenSystemParams(alpha=1.0, Gamma=gamma_ratio)
        for t in np.linspace(h, 30.0, 60):
            t = float(t)
            fd = (population_factor(params, t + h) - population_factor(params, t - h)) / (2.0 * h)
            assert population_factor_dot(params, t) == pytest.approx(fd, abs=1e-7)
    markov = OpenSystemParams(alpha=1.0, markovian_limit=True)
    for t in np.linspace(h, 20.0, 20):
        t = float(t)
        fd = (population_factor(markov, t + h) - population_factor(markov, t - h)) / (2.0 * h)
        assert population_factor_dot(markov, t) == pytest.approx(fd, abs=1e-7)
    _report(16, "population factor continuous across branches; slope matches finite differences")
