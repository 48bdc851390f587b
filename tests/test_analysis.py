import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevspeed import analysis
from qevspeed.analysis import (
    Regime,
    memory_boundaries,
    memory_witness,
    regime_classify,
    region_report,
    speedup_boundaries,
    speedup_equation,
)
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    OpenSystemParams,
    population_factor,
    population_factor_dot,
)
from qevspeed.speed import speed_at
from util import bisect_speedup_end, on_libm, open_model, speedup_measure

MEMORY_PARAMS = OpenSystemParams(alpha=1.0, Gamma=0.1)
KAPPA = math.sqrt(0.19)
# independently evaluated closed forms for Gamma/gamma0 = 0.1:
#   tau_1  = 2 (pi - arctan(kappa/Gamma)) / kappa
#   tau_1' = 2 pi / kappa
TAU_1 = 8.242034311692072
TAU_1_PRIME = 14.414615682913359

# Branches checked against the last-bit bisection: the first few, a middle
# one and the far ones whose poles lie beyond 7e6 near the critical width.
BRANCHES = (1, 2, 3, 40, 172, 300)
NEAR_CRITICAL = [1.99999999, 1.9999999999, 1.99999999999, 1.9999999999995, 1.9999999999999996]


def ulps_from_oracle(p: OpenSystemParams, ends, branches=BRANCHES) -> float:
    """The largest distance, in ulps of the oracle, between ``ends[n - 1]``
    and the last-bit bisection on branch n, over ``branches``."""
    worst = 0.0
    for n in branches:
        expected = bisect_speedup_end(p, n)
        worst = max(worst, abs(ends[n - 1] - expected) / math.ulp(expected))
    return worst


def assert_on_their_branches(p: OpenSystemParams, ends) -> None:
    """2 n pi / kappa < tau_n'' < (2n + 1) pi / kappa for n = 1, 2, ..."""
    _, kappa = analysis._oscillation_rates(p)
    n = np.arange(1, len(ends) + 1)
    assert np.all((2 * n * math.pi / kappa < ends) & (ends < (2 * n + 1) * math.pi / kappa))


class TestRegimeClassify:
    def test_wide_spectrum_is_markovian(self):
        assert regime_classify(10.0) is Regime.MARKOVIAN

    @pytest.mark.parametrize("ratio", [1e-30, 5e-25])
    def test_tiny_widths_carry_memory(self, ratio):
        assert regime_classify(ratio) is Regime.NON_MARKOVIAN

    def test_narrow_spectrum_is_non_markovian(self):
        assert regime_classify(0.1) is Regime.NON_MARKOVIAN

    def test_boundary_is_critical(self):
        assert regime_classify(2.0) is Regime.CRITICAL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            regime_classify(0.0)

    @pytest.mark.parametrize("ratio", [1.9999999999995, 1.9999999999999996, 2.0000000000005])
    def test_near_critical_ratio_takes_the_model_branch(self, ratio):
        # the critical window is the one the amplitude factor uses: a ratio
        # that the models evaluate on a non-degenerate branch is not critical
        assert OpenSystemParams(Gamma=ratio).branch() != "critical"
        expected = Regime.NON_MARKOVIAN if ratio < 2.0 else Regime.MARKOVIAN
        assert regime_classify(ratio) is expected


class TestMemoryWitness:
    def test_starts_at_one(self):
        assert memory_witness(MEMORY_PARAMS, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_grows_inside_memory_interval(self):
        h = 1e-6
        t = 11.0  # interior of (tau_1, tau_1')
        slope = (memory_witness(MEMORY_PARAMS, t + h) - memory_witness(MEMORY_PARAMS, t - h)) / (2 * h)
        assert slope > 0.0

    def test_markovian_limit_always_decays(self):
        p = OpenSystemParams(alpha=1.0, markovian_limit=True)
        h = 1e-6
        for t in (0.5, 2.0, 10.0):
            slope = (memory_witness(p, t + h) - memory_witness(p, t - h)) / (2 * h)
            assert slope < 0.0


class TestMemoryBoundaries:
    def test_first_interval_closed_forms(self):
        (tau, tau_prime), = memory_boundaries(MEMORY_PARAMS, 1)
        assert tau == pytest.approx(TAU_1, abs=1e-9)
        assert tau_prime == pytest.approx(TAU_1_PRIME, abs=1e-9)

    def test_cross_checks_against_population(self):
        (tau, tau_prime), = memory_boundaries(MEMORY_PARAMS, 1)
        assert population_factor(MEMORY_PARAMS, tau) == pytest.approx(0.0, abs=1e-9)
        assert population_factor_dot(MEMORY_PARAMS, tau_prime) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_ordering(self):
        intervals = memory_boundaries(MEMORY_PARAMS, 4)
        for tau, tau_prime in intervals:
            assert tau < tau_prime
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end < start

    def test_rejects_markovian_regime(self):
        with pytest.raises(ValueError, match="non-Markovian"):
            memory_boundaries(OpenSystemParams(alpha=1.0, Gamma=10.0), 1)
        with pytest.raises(ValueError, match="non-Markovian"):
            memory_boundaries(OpenSystemParams(alpha=1.0, markovian_limit=True), 1)

    def test_rejects_critical_ratio(self):
        with pytest.raises(ValueError, match="critical"):
            memory_boundaries(OpenSystemParams(alpha=1.0, Gamma=2.0), 1)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="n_max"):
            memory_boundaries(MEMORY_PARAMS, 0)


class TestSpeedupBoundaries:
    def test_bracket_contains_sign_change(self):
        low = 2 * math.pi / KAPPA
        high = 3 * math.pi / KAPPA - 1e-9
        assert speedup_equation(MEMORY_PARAMS, low) < 0.0
        assert speedup_equation(MEMORY_PARAMS, high) > 0.0

    def test_root_inside_bracket_with_small_residual(self):
        (tau_prime, tau_dprime), = speedup_boundaries(MEMORY_PARAMS, 1)
        assert tau_prime == pytest.approx(TAU_1_PRIME, abs=1e-9)
        assert 2 * math.pi / KAPPA < tau_dprime < 3 * math.pi / KAPPA
        assert abs(speedup_equation(MEMORY_PARAMS, tau_dprime)) <= 1e-10

    @pytest.mark.parametrize("ratio", [1e-6, 1e-9, 1e-12])
    def test_ends_at_small_widths_are_tight(self, ratio):
        # the residual scales with Gamma: an absolute residual test would
        # stop 13% short of tau_1'' at Gamma = 1e-12
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        ends = [end for _, end in speedup_boundaries(p, 3)]
        assert ulps_from_oracle(p, ends, (1, 2, 3)) <= 4.0

    @pytest.mark.parametrize("ratio", NEAR_CRITICAL)
    def test_near_critical_first_end_is_last_bit(self, ratio):
        # a residual-stopped bisection lands 4e3 to 9e4 ulps (7e-13 to
        # 1.2e-11 relative) off tau_1'' here
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        (_, tau_dprime), = speedup_boundaries(p, 1)
        assert ulps_from_oracle(p, [tau_dprime], (1,)) <= 4.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-30, 2.0, exclude_max=True), st.integers(1, 300))
    def test_any_width_and_branch_matches_the_oracle(self, ratio, n):
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        ends = np.array(speedup_boundaries(p, n))[:, 1]
        assert_on_their_branches(p, ends)
        assert ulps_from_oracle(p, ends, (n,)) <= 4.0

    def test_no_width_needs_more_than_20_steps(self, monkeypatch):
        # each step gains more than a digit (slope below 1 / (1 + pi^2)), so
        # 20 steps cover the 16 digits of a double with room to spare
        calls = []
        arctan = np.arctan

        def counted(x):
            calls.append(1)
            return arctan(x)

        monkeypatch.setattr(np, "arctan", counted)
        for ratio in np.geomspace(1e-30, 2.0 - 4e-16, 64).tolist():
            calls.clear()
            speedup_boundaries(OpenSystemParams(alpha=1.0, Gamma=ratio), 300)
            assert 0 < len(calls) <= 20

    def test_speed_slope_signs_around_interval(self):
        (tau_prime, tau_dprime), = speedup_boundaries(MEMORY_PARAMS, 1)
        traj = open_model("open-1q", MEMORY_PARAMS)

        def speed_of(t):
            return speed_at(traj, t, MetricKind.SLD)

        midpoint = 0.5 * (tau_prime + tau_dprime)
        assert speedup_measure(speed_of, midpoint) > 0.0
        assert speedup_measure(speed_of, tau_dprime + 0.1) < 0.0


# Seeded width ratios across the whole memory regime (0, 2).
ORACLE_RATIOS = np.random.default_rng(3).uniform(0.01, 1.999, 50).tolist()


class TestBatchedBoundaries:
    """The all-branch fixed point against the one-branch last-bit bisection."""

    @pytest.mark.parametrize("ratio", ORACLE_RATIOS)
    def test_speedup_ends_equal_scalar_bisection(self, ratio):
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        _, kappa = analysis._oscillation_rates(p)
        intervals = np.array(speedup_boundaries(p, 300))
        starts, ends = intervals[:, 0], intervals[:, 1]
        assert starts.tolist() == [2.0 * n * math.pi / kappa for n in range(1, 301)]
        assert_on_their_branches(p, ends)
        assert ulps_from_oracle(p, ends) <= 4.0

    @pytest.mark.parametrize("ratio", [1e-30, 1e-12, 1e-9, 1e-6])
    def test_far_branches_of_small_widths(self, ratio):
        # beyond about branch 30 of a small width, one ulp of t moves the
        # residual by more than 1e-10 Gamma: only the last bit tells there
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        ends = np.array(speedup_boundaries(p, 300))[:, 1]
        assert_on_their_branches(p, ends)
        assert np.abs(speedup_equation(p, ends[:3])).max() <= 1e-10 * ratio
        assert ulps_from_oracle(p, ends) <= 4.0

    @pytest.mark.parametrize("ratio", ORACLE_RATIOS[:10])
    def test_memory_boundaries_equal_scalar_formulas(self, ratio):
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        gamma, kappa = analysis._oscillation_rates(p)
        offset = math.atan(kappa / gamma)
        expected = [
            (2.0 * (n * math.pi - offset) / kappa, 2.0 * n * math.pi / kappa)
            for n in range(1, 301)
        ]
        assert memory_boundaries(p, 300) == expected

    @pytest.mark.parametrize("ratio", ORACLE_RATIOS[:10])
    def test_array_residual_equals_scalar_calls(self, monkeypatch, ratio):
        # an array takes numpy's tan and tanh: on libm's, the scalar
        # calls', each element is the call at that float
        on_libm(monkeypatch, analysis)
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        roots = np.array(speedup_boundaries(p, 300))[:, 1]
        t = np.concatenate([[0.0, 1e-300], np.linspace(1e-3, 2e3, 2001), roots])
        assert np.array_equal(
            speedup_equation(p, t), [speedup_equation(p, x) for x in t.tolist()]
        )
        assert speedup_equation(p, t[:2300].reshape(23, 100)).shape == (23, 100)

    @pytest.mark.parametrize("ratio", NEAR_CRITICAL)
    def test_bracket_end_stays_below_far_poles(self, ratio):
        # near the critical width the poles of branches 172..300 lie beyond
        # 7e6, where one ulp is about 1e-9: each end must still sit below
        # the pole of the branch it belongs to
        p = OpenSystemParams(alpha=1.0, Gamma=ratio)
        ends = np.array(speedup_boundaries(p, 300))[:, 1]
        assert np.abs(speedup_equation(p, ends)).max() <= 1e-10
        assert_on_their_branches(p, ends)
        assert ulps_from_oracle(p, ends) <= 4.0


class TestRegionReport:
    def test_markovian_regime_has_no_intervals(self):
        report = region_report(OpenSystemParams(alpha=1.0, Gamma=10.0), 2)
        assert report.regime is Regime.MARKOVIAN
        assert report.memory_intervals == ()
        assert report.speedup_intervals == ()

    def test_critical_regime_has_no_intervals(self):
        report = region_report(OpenSystemParams(alpha=1.0, Gamma=2.0), 2)
        assert report.regime is Regime.CRITICAL
        assert report.memory_intervals == ()

    def test_zero_count_reports_regime_only(self):
        report = region_report(MEMORY_PARAMS, 0)
        assert report.regime is Regime.NON_MARKOVIAN
        assert report.memory_intervals == ()

    def test_two_interleaved_intervals(self):
        report = region_report(MEMORY_PARAMS, 2)
        assert len(report.memory_intervals) == 2
        assert len(report.speedup_intervals) == 2
        previous_end = 0.0
        for (tau, tau_prime), (start, tau_dprime) in zip(
            report.memory_intervals, report.speedup_intervals
        ):
            assert previous_end < tau < tau_prime < tau_dprime
            # the speedup interval starts exactly where memory accumulation ends
            assert start == pytest.approx(tau_prime, abs=1e-12)
            previous_end = tau_dprime

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            region_report(MEMORY_PARAMS, -1)


class TestInterleaving:
    def test_population_slope_sign_pattern(self):
        # dP/dt > 0 exactly on the memory intervals, sampled densely
        intervals = memory_boundaries(MEMORY_PARAMS, 2)
        for (tau, tau_prime) in intervals:
            inner = np.linspace(tau, tau_prime, 1002)[1:-1]
            assert all(population_factor_dot(MEMORY_PARAMS, float(t)) > 0.0 for t in inner)
        # and < 0 on the gaps between intervals
        gaps = [
            (1e-3, intervals[0][0]),
            (intervals[0][1], intervals[1][0]),
        ]
        for start, end in gaps:
            inner = np.linspace(start, end, 1002)[1:-1]
            assert all(population_factor_dot(MEMORY_PARAMS, float(t)) < 0.0 for t in inner)

    def test_markovian_population_never_recovers(self):
        p = OpenSystemParams(alpha=1.0, Gamma=10.0)
        for t in np.linspace(1e-3, 50.0, 2000):
            assert population_factor_dot(p, float(t)) < 0.0

    def test_speed_slope_zeros_match_boundaries(self):
        # sign changes of dS/dt on a dense grid, refined by bisection, land on
        # tau_1' and tau_1''
        (tau_prime, tau_dprime), = speedup_boundaries(MEMORY_PARAMS, 1)
        traj = open_model("open-1q", MEMORY_PARAMS)

        def slope(t):
            return speedup_measure(lambda x: speed_at(traj, x, MetricKind.SLD), t)

        grid = np.linspace(12.0, 22.0, 200)
        values = [slope(float(t)) for t in grid]
        roots = []
        for left, right, lo, hi in zip(values, values[1:], grid, grid[1:]):
            if (left < 0.0) != (right < 0.0):
                a, b, fa = float(lo), float(hi), left
                while b - a > 1e-6:
                    mid = 0.5 * (a + b)
                    fm = slope(mid)
                    if (fm < 0.0) == (fa < 0.0):
                        a, fa = mid, fm
                    else:
                        b = mid
                roots.append(0.5 * (a + b))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(tau_prime, abs=1e-4)
        assert roots[1] == pytest.approx(tau_dprime, abs=1e-4)
