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
of times (and a model family built on arrays of parameters). ``speed_at``
routes by the family shape that each trajectory states when it is built
(``Trajectory.shape``): a block function of shape () runs on Python floats
by the same expression (on libm where the batch takes numpy's ufuncs), and
anything else is one point of ``speeds_at``.

Any other trajectory is one dense block (``kernel_speeds``): the kernel
sum over one stacked ``linalg.eigh_stack``, whatever its size. That
adapter holds the package's tolerances, ``PURE_STATE_TOL``, ``RANK_TOL``
and ``ELEM_TOL``, and its failures, ``RankIncreaseError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import NumericalFailure, RankIncreaseError
from .metrics import MetricKind, mc_kernel

# The dense adapter (``kernel_speeds``) drops eigenvalue-pair sums below
# RANK_TOL as boundary terms when the corresponding derivative element is
# below ELEM_TOL, and fails otherwise (the dynamics would be increasing the
# state rank).
RANK_TOL = 1e-12
ELEM_TOL = 1e-8

# The dense adapter treats a state as pure when its second-largest
# eigenvalue is below this: about 1e4 times eigh's eigenvalue rounding on a
# unit-trace state, and the same cut as RANK_TOL.
PURE_STATE_TOL = 1e-12

# The block formulas keep their F unscaled inside this window. There a finite F has no overflowed term, and
# an underflowed one is below 2^-1022 unscaled, or 2^-1022 times the largest derivative squared (at most
# about F) scaled: below 2^-122 F either way, which both sums absorb. The upper end mirrors the lower.
FISHER_WINDOW = (2.0**-900, 2.0**900)

# Half-width of the slope stencil per unit max(1, |xi|) (``stencil_step``).
# The truncation error of a central difference grows as h^2 and its rounding
# error as eps/h; they balance near eps^(1/3), about 6e-6.
DEFAULT_TIME_STEP = 1e-5


@dataclass(frozen=True)
class Trajectory:
    """A differentiable curve t -> rho_t of density operators, for t >= 0.

    ``state_at`` takes an array of times and returns rho_t at each, stacked
    along the leading axes: Hermitian, trace-one, positive-semidefinite
    matrices of size ``dim``. ``derivative_at`` returns their analytic time
    derivatives, stacked the same way. The built-in models broadcast the
    times against arrays of parameters (a family of curves evaluated
    together) and state their block function as ``blocks``, which the
    evaluators call in place of the dense matrices; ``None`` (the default)
    is the dense path. The block function takes what ``state_at`` takes and
    returns the diagonal blocks, whose entries are real: (p, s) and (dp, ds)
    for a ray (one eigenvalue p along a constant unit vector, stated as a
    fourth item past one index), and (a, c, wr, wi, s) and
    (da, dc, dwr, dwi, ds) for a pair [[a, w], [w*, c]], w = wr + i wi,
    where s is a smooth signed root of the block's determinant (p = s^2,
    ac - |w|^2 = s^2) and ds its derivative. ``dataclasses.replace`` keeps
    ``blocks``: a trajectory whose states change takes ``blocks=None``.
    ``params`` records the numbers the trajectory was built from, and
    ``shape`` the family's shape: the broadcast shape of the parameters, ()
    (the default) for one curve. The evaluators read it in place of
    inspecting the blocks: ``speed_at`` runs the blocks on Python floats
    where it is (), and ``speeds_at`` broadcasts it against the times.
    ``speed_at_zero`` is the limit of the speed at t = 0, returned there in
    place of an evaluation, for trajectories that start on the boundary of
    the state space (where the speed is a 0/0 limit); it is ``inf`` where the
    speed diverges.
    """

    dim: int
    state_at: Callable[[np.ndarray], np.ndarray]
    derivative_at: Callable[[np.ndarray], np.ndarray]
    params: dict[str, float] = field(default_factory=dict)
    speed_at_zero: float | np.ndarray | None = None
    shape: tuple[int, ...] = ()
    blocks: Callable | None = None


@dataclass(frozen=True)
class SpeedBatch:
    """Speeds at a batch of points; ``failures`` maps the flat index of each
    point whose evaluation failed to its error, and its speed is nan."""

    speeds: np.ndarray
    failures: dict[int, NumericalFailure] = field(default_factory=dict)


@dataclass(frozen=True)
class SpeedCurve:
    """Speed samples along a time grid, with slopes from the samples.

    Failed samples are nan, with their errors in ``failures`` by index.
    """

    metric: MetricKind
    times: np.ndarray
    speeds: np.ndarray
    slopes: np.ndarray  # dS/dt, central differences of the samples
    failures: dict[int, NumericalFailure] = field(default_factory=dict)


def rho_dot(traj: Trajectory, t) -> np.ndarray:
    """The trajectory's time derivative, Hermitian-symmetrized; ``t`` may be
    an array, and the derivatives are then stacked."""
    d = np.asarray(traj.derivative_at(np.asarray(t, dtype=float)), dtype=complex)
    return 0.5 * (d + d.conj().swapaxes(-2, -1))


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


def _fisher(metric: MetricKind, blocks, shrink, xp):
    """F = 4 S^2 of the built-in blocks (``Trajectory``), their derivatives
    scaled by ``shrink``: Python floats with ``xp = math``, arrays that
    broadcast with ``xp = np``, by the same operations.

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
        ds = move[-1] * shrink
        if len(state) == 2:
            total = total + 4.0 * (ds * ds)
            continue
        a, c, wr, wi, s = state
        da, dc, dwr, dwi = move[0] * shrink, move[1] * shrink, move[2] * shrink, move[3] * shrink
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


def _block_speeds(blocks, batch: tuple[int, ...], metric: MetricKind) -> SpeedBatch:
    """Speeds of built-in blocks whose entries broadcast to ``batch``. Points
    whose F leaves ``FISHER_WINDOW`` sum it again, with their derivatives,
    ``ds`` among them, scaled by ``_binary_scale`` before they are squared."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan F is summed again, scaled
        fisher = _fisher(metric, blocks, 1.0, np)
    speeds = 0.5 * np.sqrt(fisher)
    if not np.all(inside := (fisher >= FISHER_WINDOW[0]) & (fisher <= FISHER_WINDOW[1])):
        shrink, grow = _binary_scale(functools.reduce(np.maximum, [np.abs(x) for block in blocks for x in block[2]]))
        speeds = np.where(inside, speeds, 0.5 * np.sqrt(_fisher(metric, blocks, shrink, np)) * grow)
    if not (isinstance(speeds, np.ndarray) and speeds.shape == batch):
        speeds = np.broadcast_to(speeds, batch).copy()
    return SpeedBatch(speeds)


def _batch_speeds(metric: MetricKind, p: np.ndarray, magnitude: np.ndarray, grow: np.ndarray):
    """Speeds from the ascending eigenvalues ``p`` (N, d) of a stack and the
    magnitudes |<k| drho |l>| (N, d, d) in their eigenbasis, and a mask
    (N, d, d) of the terms that escape at each failed point (whose speed is
    nan).

    A point whose second-largest eigenvalue is below ``PURE_STATE_TOL`` (or
    that has one eigenvalue, whose speed is then 0) takes the Fubini-Study
    reduction: epsilon times the root of the terms into the top eigenvalue's
    column, the last. Any other takes the kernel sum, where terms whose
    eigenvalues sum below ``RANK_TOL`` are dropped when their element is
    below ``ELEM_TOL`` and escape otherwise.
    """
    p = np.maximum(p, 0.0)
    pure = p[:, :-1].max(axis=-1, initial=0.0) < PURE_STATE_TOL
    into_top = magnitude[:, :-1, -1]
    pk, pl = p[:, :, None], p[:, None, :]
    kept = pk + pl >= RANK_TOL
    total = (mc_kernel(metric, pk, pl, where=kept) * magnitude * magnitude).sum(axis=(1, 2))
    speeds = np.where(pure, metric.epsilon * np.sqrt((into_top * into_top).sum(axis=1)), 0.5 * np.sqrt(total)) * grow
    escaping = ~kept & ~pure[:, None, None] & (magnitude * grow[:, None, None] >= ELEM_TOL)
    speeds[escaping.any(axis=(1, 2))] = math.nan
    return speeds, escaping


def kernel_speeds(
    rho: np.ndarray,
    drho: np.ndarray,
    metric: MetricKind = MetricKind.SLD,
    times: np.ndarray | None = None,
) -> SpeedBatch:
    """Speeds of stacked states ``rho`` moving at ``drho`` (shape (..., d, d));
    ``drho`` is Hermitian, as ``rho_dot`` returns it. This is the dense
    adapter, for trajectories without a block function.

    The matrices are one block, whose eigensystem ``linalg.eigh_stack``
    takes. Each point's ``drho`` is scaled by a power of two near its
    largest entry before it is squared (``_binary_scale``); then each point
    takes the rules of ``_batch_speeds``, failing with
    ``RankIncreaseError`` at its first escaping pair (k, l) of eigenvalue
    ranks. ``times`` only labels the errors. Non-finite or non-Hermitian
    states raise ``ValueError`` for the whole batch.
    """
    rho = np.asarray(rho, dtype=complex)
    batch, dim = rho.shape[:-2], rho.shape[-1]
    rho = rho.reshape(-1, dim, dim)
    drho = np.asarray(drho, dtype=complex).reshape(rho.shape)
    p, vectors = linalg.eigh_stack(rho)
    shrink, grow = _binary_scale(np.abs(drho).max(axis=(1, 2), initial=0.0))
    with np.errstate(under="ignore"):  # negligible terms flush to zero
        magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ (drho * shrink[:, None, None]) @ vectors)
        speeds, escaping = _batch_speeds(metric, p, magnitude, grow)
    failures = {}
    failed = np.flatnonzero(escaping.any(axis=(1, 2))).tolist()
    if failed:  # each failure is labelled with its time
        labels = np.broadcast_to(math.nan if times is None else times, batch).ravel()
    for i in failed:
        k, l = divmod(int(np.argmax(escaping[i])), dim)  # the first pair in row-major order
        failures[i] = RankIncreaseError(float(labels[i]), (k, l), float(magnitude[i, k, l] * grow[i]))
    return SpeedBatch(speeds.reshape(batch), failures)


def _check_range(first, last, times) -> None:
    """Raise ``ValueError`` for the first of ``times`` outside [0, inf)."""
    if not (first >= 0.0 and last < math.inf):
        bad = next(x for x in np.ravel(times) if not 0.0 <= x < math.inf)
        raise ValueError(f"t = {bad} outside trajectory range [0, inf)")


def speeds_at(traj: Trajectory, times, metric: MetricKind = MetricKind.SLD) -> SpeedBatch:
    """Speeds along a trajectory at an array of times: the batch path.

    A trajectory's block function (``traj.blocks``) is called once and its
    blocks take the formulas of ``_fisher``; a trajectory without one is
    one dense block (``kernel_speeds``). At t = 0 a trajectory's
    ``speed_at_zero`` limit is returned. Negative, NaN and infinite times
    and dense states of a size other than ``traj.dim`` raise
    ``ValueError``; a failed point is nan with its error in ``failures``.
    No times give an empty batch.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        return SpeedBatch(np.empty(t.shape))
    first, last = t.min(), t.max()
    _check_range(first, last, t)
    limit = traj.speed_at_zero
    if limit is not None and last == 0.0:  # every point takes the limit
        return SpeedBatch(np.full(np.broadcast_shapes(t.shape, np.shape(limit)), limit))
    with np.errstate(under="ignore"):  # tiny entries of late states flush to zero
        return _batch_at(traj, t, metric, None if traj.blocks is None else traj.blocks(t), first)


def _batch_at(traj: Trajectory, t: np.ndarray, metric: MetricKind, blocks, first) -> SpeedBatch:
    """``speeds_at`` past its checks, from the ``blocks`` of the block function
    at ``t`` (None for a dense trajectory), whose earliest time is ``first``."""
    if blocks is not None:
        result = _block_speeds(blocks, np.broadcast_shapes(t.shape, traj.shape), metric)
    else:
        rho = np.asarray(traj.state_at(t), dtype=complex)
        if rho.shape[-2:] != (traj.dim, traj.dim):
            raise ValueError(f"trajectory declares dim={traj.dim} but its states have shape {rho.shape[-2:]}")
        result = kernel_speeds(rho, rho_dot(traj, t), metric, t)
    limit = traj.speed_at_zero
    if limit is None or first > 0.0:
        return result
    at_zero = np.broadcast_to(t == 0.0, result.speeds.shape)
    speeds = np.where(at_zero, limit, result.speeds)
    failures = {i: e for i, e in result.failures.items() if not at_zero.flat[i]}
    return SpeedBatch(speeds, failures)


def speed_at(traj: Trajectory, t: float, metric: MetricKind = MetricKind.SLD) -> float:
    """Instantaneous speed at one time: the point path. A block function of
    stated shape () (a built-in model with scalar parameters) runs on
    Python floats, by the batch's operations; anything else is one point of
    ``speeds_at``. A block function is called once either way. A failure
    raises its error."""
    blocks = None
    if isinstance(t, (int, float)):  # numpy's float64 is a float
        t = float(t)
        _check_range(t, t, t)
        limit = traj.speed_at_zero
        if t == 0.0 and isinstance(limit, (int, float)):
            return float(limit)
        if traj.blocks is not None and (t > 0.0 or limit is None):  # speeds_at returns an array limit unevaluated
            blocks = traj.blocks(t)
        if blocks is not None and not traj.shape:
            if FISHER_WINDOW[0] <= (fisher := _fisher(metric, blocks, 1.0, math)) <= FISHER_WINDOW[1]:
                return 0.5 * math.sqrt(fisher)
            shrink, grow = _binary_scale(max([abs(x) for block in blocks for x in block[2]]))
            return 0.5 * math.sqrt(_fisher(metric, blocks, shrink, math)) * grow
    if blocks is None:
        result = speeds_at(traj, t, metric)
    else:  # a family: the batch takes the blocks at hand
        with np.errstate(under="ignore"):
            result = _batch_at(traj, np.asarray(t), metric, blocks, t)
    if result.speeds.size != 1:
        raise ValueError("speed_at evaluates one point; use speeds_at for a family")
    if result.failures:
        raise next(iter(result.failures.values()))
    return float(result.speeds.reshape(-1)[0])


def stencil_step(xi) -> np.ndarray:
    """Central-difference half-width DEFAULT_TIME_STEP * max(1, |xi|)."""
    return DEFAULT_TIME_STEP * np.maximum(1.0, np.abs(xi))


def speedup_measures(evaluate: Callable[[np.ndarray], SpeedBatch], xi) -> tuple[np.ndarray, np.ndarray, dict]:
    """Speeds and central-difference slopes dS/dxi at every xi, one batch.

    A positive slope detects dynamical speedup in the swept parameter.
    ``evaluate`` receives the stencil (xi, xi + h, xi - h) stacked as an
    array of shape (3, N) and returns its ``SpeedBatch``. Returns the speeds
    at xi, the slopes dS/dxi and the failures by row; a row with any failed
    point has nan speed and slope.
    """
    xi = np.asarray(xi, dtype=float)
    h = stencil_step(xi)
    result = evaluate(np.stack([xi, xi + h, xi - h]))
    s = result.speeds
    speeds = s[0].copy()
    with np.errstate(invalid="ignore"):  # inf - inf: a divergent speed has no slope
        slopes = (s[1] - s[2]) / (2.0 * h)
    failures = {}
    for index, error in sorted(result.failures.items()):
        failures.setdefault(index % xi.size, error)
    for row in failures:
        speeds[row] = slopes[row] = math.nan
    return speeds, slopes, failures


def speed_curve(
    traj: Trajectory, grid: np.ndarray, metric: MetricKind = MetricKind.SLD
) -> SpeedCurve:
    """Sample the speed over a strictly increasing time grid, in one batch.

    Slopes are central differences of the sampled speeds (one-sided at the
    endpoints), so they converge with the grid spacing. A failed sample is
    nan (so are the slopes next to it), with its error in ``failures``; an
    infinite t = 0 limit makes the slopes next to it infinite.
    """
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    result = speeds_at(traj, times, metric)
    speeds = result.speeds
    slopes = np.empty_like(speeds)
    slopes[0] = (speeds[1] - speeds[0]) / (times[1] - times[0])
    slopes[-1] = (speeds[-1] - speeds[-2]) / (times[-1] - times[-2])
    if times.size > 2:
        slopes[1:-1] = (speeds[2:] - speeds[:-2]) / (times[2:] - times[:-2])
    return SpeedCurve(metric, times, speeds, slopes, result.failures)
