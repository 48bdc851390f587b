import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qevspeed.errors import MetricRejectionError
from qevspeed.metrics import MetricKind, mc_kernel, resolve_metric
from qevspeed.speed import kernel_speeds
from util import fubini_study_speed

EIGENVALUE_GRID = np.linspace(0.02, 1.0, 15)


class TestMcFunction:
    def test_sld_diagonal_half(self):
        # c(p, p) = 1/p
        assert mc_kernel(MetricKind.SLD, 0.5, 0.5) == pytest.approx(2.0)

    def test_wy_boundary_value(self):
        assert mc_kernel(MetricKind.WY, 1.0, 0.0) == pytest.approx(4.0)

    def test_sld_unit_sum(self):
        assert mc_kernel(MetricKind.SLD, 0.2, 0.8) == pytest.approx(2.0)

    def test_wy_diagonal_quarter(self):
        assert mc_kernel(MetricKind.WY, 0.25, 0.25) == pytest.approx(4.0)

    @given(
        st.sampled_from([MetricKind.SLD, MetricKind.WY]),
        st.floats(1e-12, 1.0),
        st.floats(1e-12, 1.0),
    )
    def test_symmetry(self, kind, x, y):
        assert mc_kernel(kind, x, y) == mc_kernel(kind, y, x)

    @given(st.sampled_from([MetricKind.SLD, MetricKind.WY]), st.floats(1e-12, 1.0))
    def test_diagonal_law(self, kind, p):
        assert abs(mc_kernel(kind, p, p) * p - 1.0) <= 1e-14

    def test_wy_dominates_sld_off_diagonal(self):
        for x in EIGENVALUE_GRID:
            for y in EIGENVALUE_GRID:
                if x == y:
                    continue
                assert mc_kernel(MetricKind.WY, x, y) >= mc_kernel(
                    MetricKind.SLD, x, y
                )

    def test_double_boundary_is_singular(self):
        # c(x, y) diverges at x = y = 0; a masked pair reads 0 instead
        with np.errstate(divide="ignore"):
            assert mc_kernel(MetricKind.SLD, 0.0, 0.0) == math.inf
            assert mc_kernel(MetricKind.WY, 0.0, 0.0) == math.inf
        for kind in MetricKind:
            assert mc_kernel(kind, 0.0, 0.0, where=False) == 0.0


class TestResolveMetric:
    def test_sld_and_wy_pass(self):
        assert resolve_metric("sld") is MetricKind.SLD
        assert resolve_metric("SLD") is MetricKind.SLD
        assert resolve_metric("wy") is MetricKind.WY

    @pytest.mark.parametrize("name", ["RLD", "rld", "BKM", "bkm"])
    def test_non_extendable_rejected(self, name):
        with pytest.raises(MetricRejectionError, match="boundary"):
            resolve_metric(name)

    def test_unknown_rejected(self):
        with pytest.raises(MetricRejectionError, match="unknown"):
            resolve_metric("bures-by-name")

    def test_epsilon_values(self):
        assert MetricKind.SLD.epsilon == 1.0
        assert MetricKind.WY.epsilon == math.sqrt(2.0)


def _precessing_state(alpha, beta, omega, t):
    phase = np.exp(-0.5j * omega * t)
    psi = np.array([alpha * phase, beta / phase])
    psi_dot = np.array([-0.5j * omega * alpha * phase, 0.5j * omega * beta / phase])
    return psi, psi_dot


def pure_state_speed(psi, psi_dot, kind):
    """``kernel_speeds`` of the pure state |psi><psi| moving at
    |psi_dot><psi| + |psi><psi_dot|, which takes the Fubini-Study route."""
    rho = np.outer(psi, psi.conj())
    drho = np.outer(psi_dot, psi.conj()) + np.outer(psi, psi_dot.conj())
    return float(kernel_speeds(rho[None], drho[None], kind).speeds[0])


class TestPureStateSpeed:
    def test_balanced_precession(self):
        # S = |alpha beta| omega = 1 for alpha = beta = 1/sqrt2, omega = 2
        a = 1.0 / math.sqrt(2.0)
        psi, psi_dot = _precessing_state(a, a, 2.0, 0.4)
        assert pure_state_speed(psi, psi_dot, MetricKind.SLD) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_basis_state_is_stationary(self):
        psi, psi_dot = _precessing_state(0.0, 1.0, 2.0, 0.4)
        assert pure_state_speed(psi, psi_dot, MetricKind.SLD) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_wy_is_sqrt2_times_sld(self):
        a = 1.0 / math.sqrt(2.0)
        psi, psi_dot = _precessing_state(a, a, 2.0, 0.4)
        assert pure_state_speed(psi, psi_dot, MetricKind.WY) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_metric_ratio_on_random_states(self):
        rng = np.random.default_rng(23)
        for dim in (2, 4):
            for _ in range(200):
                psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                psi /= np.linalg.norm(psi)
                psi_dot = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                sld = pure_state_speed(psi, psi_dot, MetricKind.SLD)
                wy = pure_state_speed(psi, psi_dot, MetricKind.WY)
                assert sld == pytest.approx(fubini_study_speed(psi, psi_dot), rel=1e-12)
                if sld > 1e-8:
                    assert wy / sld == pytest.approx(math.sqrt(2.0), abs=1e-12)
