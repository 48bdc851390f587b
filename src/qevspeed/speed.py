"""Instantaneous speed of evolution along a density-operator trajectory.

The speed at time t is S = (1/2) sqrt(F), with

    F = sum_{k,l} c(p_k, p_l) |<Phi_k| drho/dt |Phi_l>|^2

over the eigensystem {p_k, Phi_k} of rho_t and c the metric kernel.

The six built-in models are X states and state their diagonal blocks
themselves, each a ray (one eigenvalue along a constant unit vector) or a
pair, with the smooth signed root s of its determinant (``Trajectory``).
Their F takes no eigensystem and no tolerance: a ray, p = s^2, adds 4 s'^2
under both metrics, and a pair, a 2x2 block M with trace T, adds

    SLD:  (2 tr(dM^2) - (dT)^2 + 4 s'^2) / T
    WY:   4 tr((d sqrt M)^2),  sqrt M = (M + |s| I) / sqrt(T + 2 |s|).

The SLD form is the kernel sum with its diagonal 0/0, (d det)^2 / det,
written as 4 s'^2; the WY form is the sqrt(rho) embedding of that metric
(Gibilisco and Isola, J. Math. Phys. 44, 3752 (2003)). Both stay exact
where an eigenvalue touches zero, the rank discontinuity analysed by
Safranek (PRA 95, 052320 (2017)). ``speeds_at`` evaluates them over a batch
of times (and a model family built on arrays of parameters), ``speed_at``
by the family shape each trajectory states (``Trajectory.shape``): a block
function of shape () runs on Python floats by the same expression (on libm
where the batch takes numpy's ufuncs), anything else is one point of
``speeds_at``. Both sum again, scaled, only where F leaves ``FISHER_WINDOW``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metrics import MetricKind

# The block formulas keep their F unscaled inside this window. There a finite F has no overflowed term, and
# an underflowed one is below 2^-1022 unscaled, or 2^-1022 times the largest derivative squared (at most
# about F) scaled: below 2^-122 F either way, which both sums absorb. The upper end mirrors the lower.
FISHER_WINDOW = (2.0**-900, 2.0**900)

# A batch's floating-point scope, which ``speeds_at`` opens once around the block function and the sums: tiny
# entries of late states flush to zero, kappa t may overflow to inf at late times, and an inf or nan F is summed
# again, scaled (``_block_speeds``).
_BATCH_SCOPE = functools.partial(np.errstate, under="ignore", over="ignore", invalid="ignore")

# Half-width of the slope stencil per unit max(1, |xi|) (``stencil_step``).
# The truncation error of a central difference grows as h^2 and its rounding
# error as eps/h; they balance near eps^(1/3), about 6e-6.
DEFAULT_TIME_STEP = 1e-5

# The domains [0, inf) (of the times) and (0, inf) as ``speedup_measures`` takes them: open ends the nearest floats
_NONNEGATIVE = (0.0, sys.float_info.max)
_POSITIVE = (math.ulp(0.0), sys.float_info.max)


@dataclass(frozen=True)
class Trajectory:
    """A differentiable curve t -> rho_t of density operators, for t >= 0.

    ``state_at`` takes an array of times and returns rho_t at each, stacked
    along the leading axes: Hermitian, trace-one, positive-semidefinite
    matrices of size ``dim``. ``derivative_at`` returns their analytic time
    derivatives, stacked the same way. The evaluators call neither: they
    call the block function ``blocks``, which every trajectory states (a
    trajectory without one raises ``ValueError``). It takes what
    ``state_at`` takes and returns blocks of the state. The built-in models
    broadcast the times against arrays of parameters (a family of curves
    evaluated together) and return the diagonal blocks, whose entries are
    real: (p, s) and (dp, ds) for a ray (one eigenvalue p along a constant
    unit vector, stated as a fourth item past one index), and
    (a, c, wr, wi, s) and (da, dc, dwr, dwi, ds) for a pair
    [[a, w], [w*, c]], w = wr + i wi, where s is a smooth signed root of the
    block's determinant (p = s^2, ac - |w|^2 = s^2) and ds its derivative.
    A pair's state and move may be conjugated by one per-time diagonal
    unitary U, which leaves F unchanged: its move is then U^dagger rho' U,
    not the derivative of its entries (a closed model's phase is only in
    ``state_at``). A hand-written curve states its blocks in the same layout;
    ``dataclasses.replace`` keeps them, so changed states need new blocks.
    ``params`` records the numbers the trajectory was built from, and
    ``shape`` the family's shape: the broadcast shape of the parameters, ()
    (the default) for one curve. The evaluators read it in place of
    inspecting the blocks: ``speed_at`` runs the blocks on Python floats
    where it is (), and ``speeds_at`` broadcasts it against the times.
    A curve that starts on the boundary of the state space, where the speed
    is a 0/0 limit, states that limit in its blocks, so t = 0 is an ordinary
    point. ``speed_at_zero`` stays ``None``: nothing in the package reads
    it, and it is kept only because the benchmark's tracer does.
    """

    dim: int
    state_at: Callable[[np.ndarray], np.ndarray]
    derivative_at: Callable[[np.ndarray], np.ndarray]
    params: dict[str, float] = field(default_factory=dict)
    speed_at_zero: float | np.ndarray | None = None
    shape: tuple[int, ...] = ()
    blocks: Callable | None = None

    def __post_init__(self):
        if self.blocks is None:
            raise ValueError("a trajectory needs a block function (Trajectory.blocks)")


@dataclass(frozen=True)
class SpeedCurve:
    """Speed samples along a time grid, with their slopes."""

    metric: MetricKind
    times: np.ndarray
    speeds: np.ndarray
    slopes: np.ndarray  # dS/dt, from the stencil of ``speedup_measures`` at each time


def _binary_scale(peak):
    """(2^-e, 2^e) with 2^e <= ``peak`` < 2^(e+1), for a Python float or
    elementwise. Derivatives are multiplied by 2^-e before they are squared
    and the speeds by 2^e after, both exactly; e is clipped to keep both
    factors normal floats. The block formulas scale only outside ``FISHER_WINDOW``."""
    if isinstance(peak, float):
        e = min(max(math.frexp(peak)[1] - 1, -1021), 1022)
        return math.ldexp(1.0, -e), math.ldexp(1.0, e)
    e = np.minimum(np.maximum(np.frexp(peak)[1] - 1, -1021), 1022)
    return np.ldexp(1.0, -e), np.ldexp(1.0, e)


def _fisher(metric: MetricKind, blocks, xp):
    """F = 4 S^2 of the blocks (``Trajectory``) as they are (``_scaled``
    scales them): Python floats with ``xp = math``, arrays that broadcast
    with ``xp = np``, by the same operations.

    A ray adds 4 ds^2. A pair of trace T adds, under SLD,
    ((da - dc)^2 + 4 |dw|^2 + 4 ds^2) / T, and under WY 4 tr(X^2) with
    X = d sqrt M = (dM + d|s| I - (M + |s| I) q) / r, r^2 = T + 2 |s| and
    q = r'/r = (dT + 2 d|s|) / (2 r^2). The principal root needs |s|, and
    d|s| = copysign(1, s) ds takes either one-sided derivative at s = 0,
    which give the same F. No built-in pair has zero trace: the aligned
    corner's is at least beta^2 + alpha^2 / 2, the others' 1.
    """
    total = 0.0
    for block in blocks:  # indexed: a star-unpacking of the ray's fourth item costs more
        state, move = block[1], block[2]
        if len(state) == 2:
            total = total + 4.0 * (move[1] * move[1])
            continue
        a, c, wr, wi, s = state
        da, dc, dwr, dwi, ds = move
        if metric is MetricKind.SLD:
            diff = da - dc
            moved = diff * diff + 4.0 * (dwr * dwr + dwi * dwi) + 4.0 * (ds * ds)
            total = total + moved / (a + c)
        else:
            root = abs(s)
            droot = xp.copysign(1.0, s) * ds
            r2 = a + c + 2.0 * root
            q = (da + dc + 2.0 * droot) / (2.0 * r2)
            x = da + droot - (a + root) * q
            z = dc + droot - (c + root) * q
            yr, yi = dwr - wr * q, dwi - wi * q
            total = total + 4.0 * (x * x + z * z + 2.0 * (yr * yr + yi * yi)) / r2
    return total


def _scaled(blocks, shrink):
    """The blocks with every derivative multiplied by ``shrink``."""
    for b in blocks:
        yield (*b[:2], [x * shrink for x in b[2]], *b[3:])


def _moves(blocks):
    """The magnitudes of the blocks' derivatives, entry by entry."""
    for block in blocks:
        yield from map(abs, block[2])


def _block_speeds(blocks, batch: tuple[int, ...], metric: MetricKind) -> np.ndarray:
    """Speeds of blocks whose entries broadcast to ``batch``. Points whose F
    leaves ``FISHER_WINDOW`` sum it again from ``_scaled`` blocks: every
    derivative, ``ds`` too, times ``_binary_scale``'s 2^-e. Where the
    largest move is inf, the speed is inf (WY's sum would read inf - inf).
    It runs in its caller's ``_BATCH_SCOPE``, where an inf or nan F warns
    nothing."""
    fisher = _fisher(metric, blocks, np)
    speeds = 0.5 * np.sqrt(fisher)
    if not np.all(inside := (fisher >= FISHER_WINDOW[0]) & (fisher <= FISHER_WINDOW[1])):
        shrink, grow = _binary_scale(peak := functools.reduce(np.maximum, _moves(blocks)))
        scaled = 0.5 * np.sqrt(_fisher(metric, _scaled(blocks, shrink), np)) * grow
        speeds = np.where(inside, speeds, np.where(peak == math.inf, math.inf, scaled))
    if isinstance(speeds, np.ndarray) and speeds.shape == batch:
        return speeds
    return np.broadcast_to(speeds, batch).copy()


def _check_range(first, last, times) -> None:
    """Raise ``ValueError`` for the first of ``times`` outside [0, inf)."""
    if not (first >= 0.0 and last < math.inf):
        bad = next(x for x in np.ravel(times) if not 0.0 <= x < math.inf)
        raise ValueError(f"t = {bad} outside trajectory range [0, inf)")


def speeds_at(traj: Trajectory, times, metric: MetricKind = MetricKind.SLD) -> np.ndarray:
    """Speeds along a trajectory at an array of times: the batch path.

    The trajectory's block function (``traj.blocks``) is called once and
    its blocks take the formulas of ``_fisher``, all in one
    ``_BATCH_SCOPE``; t = 0 is a point like any other, whose limit the
    blocks state. Negative, NaN and infinite times raise ``ValueError``, as
    do times whose shape does not broadcast against the family's. Returns
    the speeds, of the broadcast shape of the times and the family; no
    times give an empty array.
    """
    t = np.asarray(times, dtype=float)
    if not t.ndim:  # one time, as every transverse sweep takes: checked as a float
        first = last = float(t)
    elif not t.size:
        return np.empty(np.broadcast_shapes(t.shape, traj.shape))
    else:
        first, last = t.min(), t.max()
    _check_range(first, last, t)
    with _BATCH_SCOPE():
        return _batch_at(traj, t, metric)


def _batch_at(traj: Trajectory, t: np.ndarray, metric: MetricKind) -> np.ndarray:
    """``speeds_at`` past its checks, at ``t``."""
    batch = t.shape
    if traj.shape and traj.shape != batch:  # a family's shape, broadcast only where the times' is not () either
        batch = np.broadcast_shapes(batch, traj.shape) if batch else traj.shape
    return _block_speeds(traj.blocks(t), batch, metric)


def speed_at(traj: Trajectory, t: float, metric: MetricKind = MetricKind.SLD) -> float:
    """Instantaneous speed at one time: the point path. A trajectory of
    stated shape () sums its blocks at once, on Python floats, by the
    batch's operations; a state at rest (every derivative 0, so F = 0)
    reads +0.0 with no scaled sum, and an infinite move reads inf, as on
    the batch. t = 0 is a point like any other. Anything else is one point
    of ``speeds_at``. The block function is called once either way."""
    if isinstance(t, (int, float)) and not traj.shape:  # numpy's float64 is a float
        if not 0.0 <= (t := float(t)) < math.inf:
            _check_range(t, t, t)
        blocks = traj.blocks(t)
        if FISHER_WINDOW[0] <= (fisher := _fisher(metric, blocks, math)) <= FISHER_WINDOW[1]:
            return 0.5 * math.sqrt(fisher)
        if not (peak := max(_moves(blocks))) or peak == math.inf:  # at rest (F = 0), or an infinite move (inf - inf)
            return float(peak)
        shrink, grow = _binary_scale(peak)
        return 0.5 * math.sqrt(_fisher(metric, _scaled(blocks, shrink), math)) * grow
    speeds = speeds_at(traj, t, metric)  # a family
    if speeds.size != 1:
        raise ValueError("speed_at evaluates one point; use speeds_at for a family")
    return float(speeds.reshape(-1)[0])


def stencil_step(xi) -> np.ndarray:
    """Stencil half-width DEFAULT_TIME_STEP * max(1, |xi|)."""
    return DEFAULT_TIME_STEP * np.maximum(1.0, np.abs(xi))


def speedup_measures(
    evaluate: Callable[[np.ndarray], np.ndarray], xi, domain: tuple[float, float] = (-math.inf, math.inf)
) -> tuple[np.ndarray, np.ndarray]:
    """Speeds and slopes dS/dxi at every xi, from one batch.

    A positive slope detects dynamical speedup in the swept parameter.
    ``evaluate`` receives a stencil of shape (3, N) and returns its speeds:
    (xi, xi + h, xi - h) for a central difference, h = ``stencil_step(xi)``.
    Where xi - h would leave ``domain``, a closed interval wider than 4h
    about xi, the row turns one-sided, (xi, xi + h, xi + 2h), and where
    xi + h would, (xi, xi - h, xi - 2h). A one-sided slope, second order
    too, is (4 (S1 - S0) - (S2 - S0)) / 2h, mirrored: differences from
    S(xi), so a constant speed has slope 0. A speed that is not finite
    gives a nan slope. Returns the speeds at xi and the slopes dS/dxi.
    """
    xi = np.asarray(xi, dtype=float)
    h = stencil_step(xi)
    stencil = np.empty((3, *xi.shape))
    with np.errstate(over="ignore"):  # xi + h past the largest float leaves every domain
        stencil[0], stencil[1], stencil[2] = xi, xi + h, xi - h
        forward, backward = stencil[2] < domain[0], stencil[1] > domain[1]
        if one_sided := (forward | backward).any():
            stencil[1] = np.where(backward, stencil[2], stencil[1])
            stencil[2] = np.where(forward, xi + 2.0 * h, np.where(backward, xi - 2.0 * h, stencil[2]))
    s = evaluate(stencil)
    with np.errstate(invalid="ignore"):  # inf - inf: a divergent speed has no slope
        slopes = (s[1] - s[2]) / (2.0 * h)
        if one_sided:
            ahead = (4.0 * (s[1] - s[0]) - (s[2] - s[0])) / (2.0 * h)
            behind = (4.0 * (s[0] - s[1]) - (s[0] - s[2])) / (2.0 * h)
            slopes = np.where(forward, ahead, np.where(backward, behind, slopes))
    return s[0], np.where(np.isfinite(s[0]), slopes, math.nan)


def _time_measures(traj: Trajectory, times: np.ndarray, metric: MetricKind) -> tuple[np.ndarray, np.ndarray]:
    """``speedup_measures`` at ``times`` along ``traj``, whose stencil keeps
    to t >= 0, and to t > 0 where ``traj.params`` records the Markovian
    limit (S diverges at t = 0), so that a row at t = h turns one-sided."""
    domain = _POSITIVE if traj.params.get("markovian_limit") else _NONNEGATIVE
    return speedup_measures(lambda t: speeds_at(traj, t, metric), times, domain)


def speed_curve(
    traj: Trajectory, grid: np.ndarray, metric: MetricKind = MetricKind.SLD
) -> SpeedCurve:
    """Sample the speed over a strictly increasing time grid, in one batch,
    with the slopes of ``speedup_measures`` over t >= 0 (t > 0 in the
    Markovian limit): they do not depend on the grid spacing, and they are
    one-sided where t < h (t <= h in the Markovian limit)."""
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if (times[1:] - times[:-1] <= 0.0).any():  # np.diff's test, without its call
        raise ValueError("grid must be strictly increasing")
    speeds, slopes = _time_measures(traj, times, metric)
    return SpeedCurve(metric, times, speeds, slopes)
