"""Invariants of every model's speed, as a derandomized property test
(ROADMAP item 18, without its path agreement, which waits for item 2).

- The SLD metric is the smallest monotone metric, and the kernels give
  2 / (x + y) <= 4 / (sqrt x + sqrt y)^2 <= 4 / (x + y), so
  S_SLD <= S_WY <= sqrt(2) S_SLD at every point, on either path.
- A closed model moves at constant speed (omega alpha beta, 2 omega alpha
  beta or 0 under SLD), and its blocks take no phase: its speed is one bit
  pattern per family member at every time, on either path.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qevspeed.metrics import MetricKind
from qevspeed.models import MODEL_KEYS, trajectory_from_key
from qevspeed.speed import speed_at, speeds_at

# The ordering's slack: each side is a sum of a few rounded terms, whose ratio is exact only in exact arithmetic.
# Measured over six models and two grids, S_WY / S_SLD stayed within 2 ulp of 1 and of sqrt(2).
ORDER_SLACK = 4.0 * 2.0**-52

alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
widths = st.one_of(st.sampled_from([2.0, math.inf]), st.floats(-2.0, 3.0).map(lambda x: 10.0**x))
times = st.lists(st.floats(-12.0, 3.0).map(lambda x: 10.0**x), min_size=1, max_size=8)


def build(key: str, alpha, omega: float, width: float):
    if key.startswith("closed"):
        return trajectory_from_key(key, alpha=alpha, omega=omega)
    if width == math.inf:
        return trajectory_from_key(key, alpha=alpha, markovian_limit=True)
    return trajectory_from_key(key, alpha=alpha, Gamma_over_gamma0=width)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(MODEL_KEYS), alphas, st.floats(-3.0, 3.0).map(lambda x: 10.0**x), widths, times)
def test_the_sld_speed_bounds_the_wy_speed(key, alpha, omega, width, ts):
    """S_SLD <= S_WY <= sqrt(2) S_SLD within ``ORDER_SLACK``, on the batch
    and at each point."""
    traj = build(key, alpha, omega, width)
    t = np.array(ts)
    batch = {metric: speeds_at(traj, t, metric) for metric in MetricKind}
    points = {metric: np.array([speed_at(traj, x, metric) for x in ts]) for metric in MetricKind}
    for speeds in (batch, points):
        sld, wy = speeds[MetricKind.SLD], speeds[MetricKind.WY]
        assert np.isfinite(sld).all() and np.isfinite(wy).all(), (sld, wy)
        assert np.all(sld * (1.0 - ORDER_SLACK) <= wy), (sld, wy)
        assert np.all(wy <= math.sqrt(2.0) * sld * (1.0 + ORDER_SLACK)), (sld, wy)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.sampled_from([key for key in MODEL_KEYS if key.startswith("closed")]),
    st.lists(alphas, min_size=1, max_size=4),
    st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
    times,
)
def test_a_closed_speed_is_one_bit_pattern(key, members, omega, ts):
    """A family's speeds over any times are one bit pattern per member, the
    bits of that member's own curve, whose ``speed_at`` at every time
    returns them too, under both metrics."""
    family = trajectory_from_key(key, alpha=np.array(members), omega=omega)
    t = np.array(ts)
    for metric in MetricKind:
        speeds = speeds_at(family, t[:, None], metric)
        for column, alpha in zip(speeds.T, members):
            one = trajectory_from_key(key, alpha=alpha, omega=omega)
            want = speeds_at(one, 0.0, metric)
            assert column.tobytes() == np.full(len(ts), want).tobytes(), (alpha, column)
            assert speeds_at(one, t, metric).tobytes() == column.tobytes()
            assert all(speed_at(one, x, metric) == want for x in ts)
