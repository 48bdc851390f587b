"""Memory regions, speedup regions and regime classification for the
Lorentzian-bath damped qubit.

All times here are dimensionless (gamma0 * t). In the memory regime
(Gamma / gamma0 < 2) the population factor P_t oscillates: it touches zero at

    tau_n = 2 [n pi - arctan(kappa / Gamma)] / kappa

and peaks at tau_n' = 2 n pi / kappa, so sqrt(P_t) - the memory witness -
increases exactly on (tau_n, tau_n'). Each memory interval hands over to a
longitudinal-speedup interval (tau_n', tau_n'') whose right endpoint solves
the transcendental equation

    Gamma tan(kappa t / 2) = kappa tanh(Gamma t / 2),

found by bisection on the tangent branch (2 n pi / kappa, (2n+1) pi / kappa).
All ``n_max`` branches are bisected together, as arrays: each step halves
every bracket that is still open, and a branch freezes at the first midpoint
whose residual is within ROOT_RESIDUAL_TOL min(1, Gamma), or once its bracket
is two adjacent floats - the stopping rule and midpoint arithmetic of a
one-branch bisection, so the roots agree with it bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RootBracketError
from .models import OpenSystemParams, _libm, population_factor

# Near a root both terms of the residual are of order Gamma, so below
# Gamma = 1 the stopping rule is ROOT_RESIDUAL_TOL * Gamma: an absolute 1e-10
# would stop far from the root at small widths (13% off at Gamma = 1e-12).
ROOT_RESIDUAL_TOL = 1e-10
_POLE_PAD = 1e-9
_MAX_BISECTIONS = 200


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


def _branches(n_max: int) -> np.ndarray:
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return np.arange(1.0, n_max + 1.0)


def memory_boundaries(p: OpenSystemParams, n_max: int) -> list[tuple[float, float]]:
    """First ``n_max`` memory intervals (tau_n, tau_n') in gamma0*t units."""
    n = _branches(n_max)
    gamma, kappa = _oscillation_rates(p)
    offset = math.atan(kappa / gamma)
    tau = 2.0 * (n * math.pi - offset) / kappa
    tau_prime = 2.0 * n * math.pi / kappa
    return list(zip(tau.tolist(), tau_prime.tolist()))


_tan, _tanh = _libm(math.tan), _libm(math.tanh)


def _speedup_residual(gamma: float, kappa: float, t):
    # libm's tan and tanh for floats and arrays alike: an array element is
    # the scalar residual bit for bit, so every bisection step is the
    # scalar one's
    return gamma * _tan(0.5 * kappa * t) - kappa * _tanh(0.5 * gamma * t)


def speedup_equation(p: OpenSystemParams, t):
    """Residual Gamma tan(kappa t / 2) - kappa tanh(Gamma t / 2) at gamma0*t = t.

    ``t`` may be an array; each element equals the call at that float."""
    gamma, kappa = _oscillation_rates(p)
    return _speedup_residual(gamma, kappa, t)


def speedup_boundaries(p: OpenSystemParams, n_max: int) -> list[tuple[float, float]]:
    """First ``n_max`` speedup intervals (tau_n', tau_n'') in gamma0*t units.

    Each right endpoint is bisected to |residual| <= ROOT_RESIDUAL_TOL
    min(1, Gamma), or until its bracket is two adjacent floats, on the
    branch where the tangent rises from zero toward its pole; all branches
    are bisected together.
    """
    n = _branches(n_max)
    gamma, kappa = _oscillation_rates(p)
    residual = functools.partial(_speedup_residual, gamma, kappa)
    tol = ROOT_RESIDUAL_TOL * min(1.0, gamma)
    tau_prime = 2.0 * n * math.pi / kappa
    pole = (2.0 * n + 1.0) * math.pi / kappa
    # beyond a pole of about 2e6, _POLE_PAD is about one ulp of it: pad by 4
    # ulps there, so the bracket end never rounds onto the pole
    low, high = tau_prime, pole - np.maximum(_POLE_PAD, 4.0 * np.spacing(pole))
    g_low, g_high = residual(low), residual(high)
    unbracketed = np.flatnonzero((g_low >= 0.0) | (g_high <= 0.0))
    if unbracketed.size:
        i = unbracketed[0]
        raise RootBracketError(
            f"no sign change for the speedup-end equation on branch n = {i + 1}, "
            f"({low[i]:.6g}, {high[i]:.6g}): g = ({g_low[i]:.3e}, {g_high[i]:.3e})"
        )
    roots = np.empty_like(low)
    open_ = np.arange(n_max)  # branches still bisected; low, high, g_low follow
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (low + high)
        g_mid = residual(mid)
        # a bracket of two adjacent floats holds the root to the last bit;
        # on far branches of a small width rounding keeps |g| above tol there
        done = (np.abs(g_mid) <= tol) | (mid == low) | (mid == high)
        roots[open_[done]] = mid[done]
        to_low = (g_mid < 0.0) == (g_low < 0.0)
        low, g_low = np.where(to_low, mid, low), np.where(to_low, g_mid, g_low)
        high = np.where(to_low, high, mid)
        keep = ~done
        open_, low, high, g_low = open_[keep], low[keep], high[keep], g_low[keep]
        if not open_.size:
            return list(zip(tau_prime.tolist(), roots.tolist()))
    raise RootBracketError(
        f"bisection failed to reach residual {tol:.1e} on "
        f"branch n = {open_[0] + 1}"
    )


def region_report(p: OpenSystemParams, n_max: int) -> RegionReport:
    """Regime plus the first ``n_max`` memory and speedup intervals.

    Markovian and critical parameters yield empty interval lists (there is no
    oscillation to bound); so does ``n_max = 0``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    regime = _REGIMES[p.branch()]
    if regime is not Regime.NON_MARKOVIAN or n_max == 0:
        return RegionReport(regime, (), (), n_max)
    memory = tuple(memory_boundaries(p, n_max))
    speedup = tuple(speedup_boundaries(p, n_max))
    return RegionReport(regime, memory, speedup, n_max)
