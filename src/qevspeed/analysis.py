"""Memory regions, speedup regions and regime classification for the
Lorentzian-bath damped qubit.

All times here are dimensionless (gamma0 * t). In the memory regime
(Gamma / gamma0 < 2) the population factor P_t oscillates: it touches zero at

    tau_n = 2 [n pi - arctan(kappa / Gamma)] / kappa

and peaks at tau_n' = 2 n pi / kappa, so sqrt(P_t) - the memory witness -
increases exactly on (tau_n, tau_n'). Each memory interval hands over to a
longitudinal-speedup interval (tau_n', tau_n'') whose right endpoint solves
the transcendental equation

    Gamma tan(kappa t / 2) = kappa tanh(Gamma t / 2).

On branch n put kappa t / 2 = n pi + u with u in (0, pi / 2) and r = kappa /
Gamma: the equation is the fixed point u = arctan(r tanh((n pi + u) / r)),
and tau_n'' = 2 (n pi + u) / kappa. The map's slope, sech^2(s) / (1 + r^2
tanh^2(s)) at s = Gamma t / 2, stays below 1 / (1 + pi^2) < 0.1 for n >= 1,
so each step gains more than a digit. From u = arctan(r), the n -> infinity
limit, the iterates fall monotonically onto the root, since tanh < 1; all
branches iterate together, and a branch stops when its next iterate does not
fall. That stopping rule is where rounding takes over, so it needs no
tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .models import OpenSystemParams, population_factor


class Regime(enum.Enum):
    MARKOVIAN = "markovian"
    NON_MARKOVIAN = "non_markovian"
    CRITICAL = "critical"


@dataclass(frozen=True)
class RegionReport:
    """Memory intervals (tau_n, tau_n') and speedup intervals (tau_n', tau_n'')
    in gamma0*t units; both empty outside the non-Markovian regime."""

    regime: Regime
    memory_intervals: tuple[tuple[float, float], ...]
    speedup_intervals: tuple[tuple[float, float], ...]
    n_max: int


# The regime of each branch of the amplitude factor: the critical branch
# is the boundary, the hyperbolic one (Gamma > 2 gamma0) is memoryless.
_REGIMES = {
    "markovian": Regime.MARKOVIAN,
    "hyperbolic": Regime.MARKOVIAN,
    "critical": Regime.CRITICAL,
    "oscillatory": Regime.NON_MARKOVIAN,
}


def regime_classify(gamma_ratio: float) -> Regime:
    """Classify the bath by its width ratio Gamma / gamma0.

    Above 2 the environment is memoryless (Markovian), below 2 it carries
    memory; the boundary 2 itself is reported as critical.
    """
    return _REGIMES[OpenSystemParams(Gamma=gamma_ratio).branch()]


def memory_witness(p: OpenSystemParams, t):
    """sqrt(P_t); the environment feeds information back wherever this grows.

    ``t`` may be an array."""
    pop = population_factor(p, t)
    return math.sqrt(pop) if isinstance(pop, float) else np.sqrt(pop)


def _oscillation_rates(p: OpenSystemParams) -> tuple[float, float]:
    """(Gamma, kappa) for the non-Markovian regime only."""
    regime = _REGIMES[p.branch()]
    if regime is not Regime.NON_MARKOVIAN:
        raise ValueError(
            f"memory/speedup boundaries exist only in the non-Markovian regime "
            f"(Gamma / gamma0 < 2); got the {regime.value} regime"
        )
    return p.Gamma, p.kappa


def _boundaries(p: OpenSystemParams, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau_n, tau_n' and tau_n'' for n = 1 .. ``n_max``, as float arrays in
    gamma0*t units: the columns of every interval this module reports.

    With r = kappa / Gamma, tau_n = 2 (n pi - arctan(r)) / kappa and each
    right end tau_n'' = 2 (n pi + u) / kappa, with u the fixed point of
    u = arctan(r tanh((n pi + u) / r)). The map contracts by at least
    1 + pi^2 per step; from u = arctan(r) the iterates fall onto the root,
    and a branch stops when its next iterate does not fall.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    gamma, kappa = _oscillation_rates(p)
    r = kappa / gamma
    turns = np.arange(1.0, n_max + 1.0) * math.pi
    offset = math.atan(r)
    u = np.full(n_max, offset)
    while True:
        step = np.arctan(r * np.tanh((turns + u) / r))
        falling = step < u
        if not falling.any():
            break
        u = np.where(falling, step, u)
    return 2.0 * (turns - offset) / kappa, 2.0 * turns / kappa, 2.0 * (turns + u) / kappa


def memory_boundaries(p: OpenSystemParams, n_max: int) -> list[tuple[float, float]]:
    """First ``n_max`` memory intervals (tau_n, tau_n') in gamma0*t units."""
    tau, tau_prime, _ = _boundaries(p, n_max)
    return list(zip(tau.tolist(), tau_prime.tolist()))


def speedup_equation(p: OpenSystemParams, t):
    """Residual Gamma tan(kappa t / 2) - kappa tanh(Gamma t / 2) at gamma0*t = t.

    ``t`` may be an array, which takes numpy's tan and tanh; a number takes
    libm's."""
    gamma, kappa = _oscillation_rates(p)
    xp = math if isinstance(t, (int, float)) else np
    return gamma * xp.tan(0.5 * kappa * t) - kappa * xp.tanh(0.5 * gamma * t)


def speedup_boundaries(p: OpenSystemParams, n_max: int) -> list[tuple[float, float]]:
    """First ``n_max`` speedup intervals (tau_n', tau_n'') in gamma0*t units;
    each right end is a branch-angle fixed point (``_boundaries``), where the
    speed of ``open-1q`` at alpha = 1 and of ``open-2q-anti`` stops rising
    (at other amplitudes, and for ``open-2q-aligned``, speedups end later)."""
    _, tau_prime, tau_dprime = _boundaries(p, n_max)
    return list(zip(tau_prime.tolist(), tau_dprime.tolist()))


def _region_columns(p: OpenSystemParams, n_max: int) -> tuple[Regime, np.ndarray, np.ndarray, np.ndarray]:
    """``region_report``'s regime, and its tau_n, tau_n' and tau_n'' as the
    arrays of ``_boundaries``: empty where it lists no interval."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    regime = _REGIMES[p.branch()]
    if regime is not Regime.NON_MARKOVIAN or n_max == 0:
        return regime, *[np.empty(0)] * 3
    return regime, *_boundaries(p, n_max)


def region_report(p: OpenSystemParams, n_max: int) -> RegionReport:
    """Regime plus the first ``n_max`` memory and speedup intervals.

    Markovian and critical parameters yield empty interval lists (there is no
    oscillation to bound); so does ``n_max = 0``.
    """
    regime, tau, tau_prime, tau_dprime = _region_columns(p, n_max)
    memory = tuple(zip(tau.tolist(), tau_prime.tolist()))
    speedup = tuple(zip(tau_prime.tolist(), tau_dprime.tolist()))
    return RegionReport(regime, memory, speedup, n_max)
