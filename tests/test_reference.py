"""Accuracy against the extended-precision reference of tests/util.py
(ROADMAP items 2 and 3): G_t, G'_t and 1 - P_t on every branch, and the
speeds of all six models under both metrics on every evaluation path,
near t = 0 included, where 1 - P_t is far below 1.
"""

import math

import numpy as np
import pytest

from qevspeed.analysis import memory_boundaries
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    amplitude_factor,
    amplitude_factor_dot,
    population_complement,
    trajectory_from_key,
)
from qevspeed.speed import speed_at, speeds_at
from util import reference_amplitudes, reference_speed

# ROADMAP item 2's grid: every branch, and the widths next to the critical one
WIDTHS = [1e-12, 1e-6, 0.01, 0.1, 0.5, 1.9, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 2.1, 10.0, 20.0, 1e6, 1e17, math.inf]
TIMES = [1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.3, 1.0, 3.0, 8.0, 20.0, 49.0]
# the largest relative error measured on that grid was 2.1e-15 for 1 - P_t, 6.5e-15 for G_t and 4.2e-15 for G'_t
AMPLITUDE_RTOL = 1e-14

# ROADMAP item 3's grid, with the first two zeros tau_n of G_t at the oscillatory widths
ALPHAS = [0.3, 0.6, 0.7, 1.0]
SPEED_WIDTHS = [0.1, 0.5, 10.0, 20.0]
SPEED_TIMES = [1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 0.5, 3.0, 13.86, 15.76, 27.0, 40.0]
# the largest relative error measured on that grid was 3.9e-15 under SLD and 3.8e-15 under WY, on every path
SPEED_RTOL = 1e-13


def bath(width: float) -> dict:
    return {"markovian_limit": True} if math.isinf(width) else {"Gamma_over_gamma0": width}


def params(width: float, alpha: float = 1.0) -> OpenSystemParams:
    return OpenSystemParams(alpha=alpha, **{"Gamma": width} if math.isfinite(width) else {"markovian_limit": True})


@pytest.mark.parametrize("width", WIDTHS)
def test_amplitudes_and_complement_match_the_reference(width):
    """G_t, G'_t and 1 - P_t at one time and over the times, and the models'
    c_t^2 (the anti pair's decaying ray) on the point and the batch path."""
    p = params(width)
    anti = trajectory_from_key("open-2q-anti", alpha=0.6, **bath(width))
    times = np.array(TIMES)
    batch = [population_complement(p, times), anti.blocks(times)[1][1][1] ** 2]
    batch += [amplitude_factor(p, times), amplitude_factor_dot(p, times)]
    for i, t in enumerate(TIMES):
        g, dg, lost = reference_amplitudes(width, t)
        comp = float(lost * (1 + g))
        point = [population_complement(p, t), anti.blocks(t)[1][1][1] ** 2, amplitude_factor(p, t)]
        point.append(amplitude_factor_dot(p, t))
        for name, want, got in zip(["1 - P", "c^2", "G", "G'"], [comp, comp, float(g), float(dg)], point):
            assert got == pytest.approx(want, rel=AMPLITUDE_RTOL, abs=0.0), (name, t)
        for name, want, got in zip(["1 - P", "c^2", "G", "G'"], [comp, comp, float(g), float(dg)], batch):
            assert got[i] == pytest.approx(want, rel=AMPLITUDE_RTOL, abs=0.0), (name, t)


def test_the_reference_closed_forms_are_its_kernel_sums():
    """The reference's SLD closed forms equal its own kernel sums over the
    blocks' eigenvalues, so either checks the other."""
    for key in ("open-1q", "open-2q-aligned", "open-2q-anti"):
        for width in (0.1, 2.0, 10.0, math.inf):
            for t in (1e-9, 0.5, 7.3):
                closed = reference_speed(key, 0.6, width, t, MetricKind.SLD)
                assert reference_speed(key, 0.6, width, t, MetricKind.SLD, by_blocks=True) == pytest.approx(closed, rel=1e-15)


@pytest.mark.parametrize("metric", list(MetricKind), ids=[m.value for m in MetricKind])
@pytest.mark.parametrize("key", MODEL_KEYS)
def test_speeds_match_the_reference(key, metric):
    """``speed_at``, ``speeds_at`` on one curve and ``speeds_at`` on the
    family of all four alphas, against the reference."""
    closed = key.startswith("closed")
    for width in [None] if closed else SPEED_WIDTHS:
        times = list(SPEED_TIMES)
        if not closed and width < 2.0:
            times += [pair[0] for pair in memory_boundaries(OpenSystemParams(Gamma=width), 2)]
        kwargs = {} if closed else bath(width)
        family = speeds_at(trajectory_from_key(key, alpha=np.array(ALPHAS), **kwargs), np.array(times)[:, None], metric)
        for j, alpha in enumerate(ALPHAS):
            traj = trajectory_from_key(key, alpha=alpha, **kwargs)
            batch = speeds_at(traj, np.array(times), metric)
            for i, t in enumerate(times):
                want = reference_speed(key, alpha, width, t, metric)
                for path, got in (("point", speed_at(traj, t, metric)), ("batch", batch[i]), ("family", family[i, j])):
                    assert got == pytest.approx(want, rel=SPEED_RTOL, abs=0.0), (path, alpha, width, t)


@pytest.mark.parametrize("key", ["open-1q", "open-2q-aligned", "open-2q-anti"])
def test_the_start_is_within_an_ulp_of_its_limit(key):
    """At t = 0 every open model reads the limit of its speed, alpha^2
    sqrt(Gamma / 2), alpha sqrt(Gamma) and sqrt(Gamma / 2), within 1 ulp
    under both metrics, on the point path, on one curve's batch and on a
    family's; inf in the Markovian limit and 0 for a state at rest,
    exactly."""
    alphas = [0.0, 0.3, 0.6, 1.0]
    for width in (0.1, 0.5, 2.0, 10.0, 20.0, 1e6, math.inf):
        for metric in MetricKind:
            family = speeds_at(trajectory_from_key(key, alpha=np.array(alphas), **bath(width)), 0.0, metric)
            for alpha, member in zip(alphas, family.tolist()):
                scale = {"open-1q": alpha * alpha, "open-2q-aligned": alpha, "open-2q-anti": 1.0}[key]
                want = 0.0 if scale == 0.0 else scale * math.sqrt((1.0 if key == "open-2q-aligned" else 0.5) * width)
                traj = trajectory_from_key(key, alpha=alpha, **bath(width))
                for got in (speed_at(traj, 0.0, metric), float(speeds_at(traj, [0.0], metric)[0]), member):
                    if want == 0.0 or math.isinf(want):
                        assert got == want, (alpha, width, metric)
                    else:
                        assert abs(got - want) <= math.ulp(want), (alpha, width, metric, got, want)
