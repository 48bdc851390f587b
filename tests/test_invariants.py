"""Invariants of every model's speed, as a derandomized property test
(ROADMAP item 18).

- The SLD metric is the smallest monotone metric, and the kernels give
  2 / (x + y) <= 4 / (sqrt x + sqrt y)^2 <= 4 / (x + y), so
  S_SLD <= S_WY <= sqrt(2) S_SLD at every point, on either path.
- A closed model moves at constant speed (omega alpha beta, 2 omega alpha
  beta or 0 under SLD), and its blocks take no phase: its speed is one bit
  pattern per family member at every time, on either path.
- The point path (libm) and the batch path (numpy's ufuncs) agree within
  ``PATH_ULPS``, also where 1 - P_t is small.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qevspeed.analysis import memory_boundaries
from qevspeed.metrics import MetricKind
from qevspeed.models import MODEL_KEYS, OpenSystemParams, population_complement, trajectory_from_key
from qevspeed.speed import speed_at, speeds_at

# The ordering's slack: each side is a sum of a few rounded terms, whose ratio is exact only in exact arithmetic.
# Measured over six models and two grids, S_WY / S_SLD stayed within 2 ulp of 1 and of sqrt(2).
ORDER_SLACK = 4.0 * 2.0**-52

# speed_at against speeds_at: libm's and numpy's exp, expm1, sin and sinh differ by an ulp or two, and 1 - G_t sums
# terms up to about 8 times itself just past its series branch (t = 1/4), so the speeds differ by more there than
# elsewhere. Over 20,000 random points of all three open models (both metrics, alpha with 0 and 1, widths 10^[-2, 3]
# with 2 and Markovian, t log-uniform on [1e-12, 1e3]) the largest gap was 13 ulp, at t = 0.32 on the hyperbolic
# branch, and 5 ulp where 1 - P_t >= 1/2.
PATH_ULPS = 16

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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(MODEL_KEYS), alphas, widths, times, st.booleans())
@example("open-1q", 1.0, 10.0, [1e-8], False)  # 0.37 relative apart with 1 - P_t as the float 1 - G_t^2
def test_the_paths_agree(key, alpha, width, ts, zero_of_g):
    """``speed_at`` equals ``speeds_at`` within ``PATH_ULPS`` at every time,
    under both metrics; inf and 0 exactly. The times take t = 0 and, at an
    oscillatory width, the first zero tau_1 of G_t as well, where asked."""
    traj = build(key, alpha, 1.0, width)
    if zero_of_g:
        ts = [0.0, *ts]
        if width < 2.0:
            ts.append(memory_boundaries(OpenSystemParams(Gamma=width), 1)[0][0])
    bath = OpenSystemParams(Gamma=None if width == math.inf else width, markovian_limit=width == math.inf)
    for metric in MetricKind:
        batch = speeds_at(traj, np.array(ts), metric).tolist()
        for t, want in zip(ts, batch):
            got = speed_at(traj, t, metric)
            if want == 0.0 or math.isinf(want):
                assert got == want, (t, metric, got, want)
            else:
                gap = abs(got - want) / math.ulp(want)
                assert gap <= PATH_ULPS, (t, metric, got, want, gap, population_complement(bath, t))
