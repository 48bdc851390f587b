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

A hand-written trajectory states a factor A_t of its states instead,
rho = A A^dagger (``factor_trajectory``): a Kraus sum or a purification
gives one directly. Its one block is the factor and its derivative A',
whose F takes one singular value decomposition A = W Sigma V^dagger:
W^dagger rho' W = B Sigma^T + Sigma B^dagger with B = W^dagger A' V, and
a singular value that touches zero adds 4 |B_lk|^2 over its null rows and
columns, with no division. That rule holds the package's one tolerance
for the rank, ``TOUCH_TOL``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import NumericalFailure
from .metrics import MetricKind, mc_kernel

# A factor's singular value at or below TOUCH_TOL times its largest counts as 0 (``_factor_fisher``). Above it, the
# decomposition's vectors err by about eps sigma_max / sigma, and the kernel sum's error grows as the square of that;
# below it, the touch rule errs by about sigma / sigma_max. The two errors meet near eps^(2/3), about 2^-35.
TOUCH_TOL = 2.0**-35

# The block formulas keep their F unscaled inside this window. There a finite F has no overflowed term, and
# an underflowed one is below 2^-1022 unscaled, or 2^-1022 times the largest derivative squared (at most
# about F) scaled: below 2^-122 F either way, which both sums absorb. The upper end mirrors the lower.
FISHER_WINDOW = (2.0**-900, 2.0**900)

# A batch's floating-point scope, which its entry (``speeds_at``, ``speed_at``'s family path) opens once around a
# model's block function and the sums (a hand-written factor runs before it, ``_unscoped_blocks``): tiny entries of
# late states flush to zero, kappa t may overflow to inf at late times, and an inf or nan F is summed again, scaled
# (``_block_speeds``).
_BATCH_SCOPE = functools.partial(np.errstate, under="ignore", over="ignore", invalid="ignore")

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
    A hand-written trajectory (``factor_trajectory``) returns one factor
    block, (None, A, A') with A's decomposition as a fourth item.
    ``dataclasses.replace`` keeps ``blocks``: a trajectory whose states
    change states its factor anew.
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

    def __post_init__(self):
        if self.blocks is None:
            raise ValueError("a trajectory needs a block function; state a hand-written one with factor_trajectory")


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
    corner's is at least beta^2 + alpha^2 / 2, the others' 1. A factor
    block adds ``_factor_fisher``, on numpy's arrays either way.
    """
    total = 0.0
    for block in blocks:  # indexed: a star-unpacking of the ray's fourth item costs more
        state, move = block[1], block[2]
        if block[0] is None:
            total = total + _factor_fisher(metric, block[3], move)
            continue
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


def _factor_fisher(metric: MetricKind, decomposition, move: np.ndarray):
    """F of the states A A^dagger moving at A' A^dagger + A A'^dagger, from
    the decomposition A = W Sigma V^dagger of stacked factors A
    (``linalg.svd_stack``) and their derivatives A', shape (..., d, r).

    With B = W^dagger A' V, the derivative in the basis W is M = X + X^dagger,
    X = B Sigma^T, and F is its kernel sum over the eigenvalues sigma^2,
    whose diagonal terms are 4 (Re B_kk)^2. A singular value
    at or below ``TOUCH_TOL`` times the largest counts as 0: a null row l
    and a null column k (past the singular values too) add 4 |B_lk|^2, the
    limit of the terms of eigenvalues that touch zero, whatever the basis
    of the null spaces.
    """
    w, sigma, vh = decomposition
    d, r, n = w.shape[-1], vh.shape[-1], sigma.shape[-1]
    left, right = (np.zeros(sigma.shape[:-1] + (k,)) for k in (d, r))  # Sigma's diagonal, padded on either side
    left[..., :n] = right[..., :n] = np.where(sigma <= TOUCH_TOL * sigma[..., :1], 0.0, sigma)
    pk, pl = left[..., :, None] ** 2, left[..., None, :] ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan F is summed again, scaled
        b = w.conj().swapaxes(-2, -1) @ move @ vh.conj().swapaxes(-2, -1)
        x = (b * right[..., None, :]) @ np.eye(r, d)
        m = x + x.conj().swapaxes(-2, -1)
        total = (mc_kernel(metric, pk, pl, where=pk + pl > 0.0) * (m.real**2 + m.imag**2)).sum(axis=(-2, -1))
        touched = np.where((left[..., :, None] == 0.0) & (right[..., None, :] == 0.0), b.real**2 + b.imag**2, 0.0)
        return total + 4.0 * touched.sum(axis=(-2, -1))


def _scaled(blocks, shrink):
    """The blocks with every derivative multiplied by ``shrink`` (a factor's at each point)."""
    for b in blocks:
        yield (*b[:2], b[2] * np.expand_dims(shrink, (-2, -1)) if b[0] is None else [x * shrink for x in b[2]], *b[3:])


def _moves(blocks):
    """The magnitudes of the blocks' derivatives: a ray's or a pair's entries, a factor's largest."""
    for block in blocks:
        if block[0] is None:
            yield np.abs(block[2]).max(axis=(-2, -1), initial=0.0)
        else:
            yield from map(abs, block[2])


def factor_trajectory(factor_at: Callable[[np.ndarray], tuple], **fields) -> Trajectory:
    """The trajectory t -> A_t A_t^dagger of a factor, for a hand-written
    curve: the one constructor of a trajectory that is not a built-in model.

    ``factor_at`` takes an array of times and returns (A_t, A'_t), the
    factors and their analytic time derivatives stacked along the times'
    shape, each of shape (..., dim, r): the columns [K_i psi] of a Kraus sum
    or a purification give one directly. ``fields`` are the other
    ``Trajectory`` fields, ``dim`` among them; a factor with other than
    ``dim`` rows raises ``ValueError``. The block function returns one
    factor block, (None, A, A') with A's one ``linalg.svd_stack`` as a
    fourth item, which ``_factor_fisher`` sums. ``state_at`` is A A^dagger
    and ``derivative_at`` A' A^dagger + A A'^dagger. Every evaluator runs
    ``factor_at`` in its caller's floating-point state.
    """
    dim = fields.get("dim")

    def factors(t):
        factor, move = (np.asarray(x, dtype=complex) for x in factor_at(np.asarray(t, dtype=float)))
        if factor.shape[-2] != dim:
            raise ValueError(f"trajectory declares dim={dim} but its factors have {factor.shape[-2]} rows")
        return factor, move

    def state_at(t):
        factor, _ = factors(t)
        return factor @ factor.conj().swapaxes(-2, -1)

    def derivative_at(t):
        factor, move = factors(t)
        half = move @ factor.conj().swapaxes(-2, -1)
        return half + half.conj().swapaxes(-2, -1)

    blocks = functools.partial(_factor_blocks, factors)
    return Trajectory(state_at=state_at, derivative_at=derivative_at, blocks=blocks, **fields)


def _factor_blocks(factors, t):
    """A hand-written trajectory's block function: its one factor block at ``t``."""
    factor, move = factors(t)
    return [(None, factor, move, linalg.svd_stack(factor))]


def _unscoped_blocks(traj: Trajectory, t):
    """A hand-written factor's blocks at ``t``, which a batch takes before it
    opens ``_BATCH_SCOPE``: ``factor_at`` runs in its caller's floating-point
    state, as ``state_at`` and ``speed_at``'s float path run it. None for a
    model, whose block function runs in the scope."""
    return traj.blocks(t) if getattr(traj.blocks, "func", None) is _factor_blocks else None


def _block_speeds(blocks, batch: tuple[int, ...], metric: MetricKind) -> SpeedBatch:
    """Speeds of blocks whose entries broadcast to ``batch``. Points whose F
    leaves ``FISHER_WINDOW`` sum it again from ``_scaled`` blocks: every
    derivative, ``ds`` and a factor's too, times ``_binary_scale``'s 2^-e.
    It runs in its caller's ``_BATCH_SCOPE``, where an inf or nan F warns
    nothing."""
    fisher = _fisher(metric, blocks, np)
    speeds = 0.5 * np.sqrt(fisher)
    if not np.all(inside := (fisher >= FISHER_WINDOW[0]) & (fisher <= FISHER_WINDOW[1])):
        shrink, grow = _binary_scale(functools.reduce(np.maximum, _moves(blocks)))
        speeds = np.where(inside, speeds, 0.5 * np.sqrt(_fisher(metric, _scaled(blocks, shrink), np)) * grow)
    if not (isinstance(speeds, np.ndarray) and speeds.shape == batch):
        speeds = np.broadcast_to(speeds, batch).copy()
    return SpeedBatch(speeds)


def _check_range(first, last, times) -> None:
    """Raise ``ValueError`` for the first of ``times`` outside [0, inf)."""
    if not (first >= 0.0 and last < math.inf):
        bad = next(x for x in np.ravel(times) if not 0.0 <= x < math.inf)
        raise ValueError(f"t = {bad} outside trajectory range [0, inf)")


def speeds_at(traj: Trajectory, times, metric: MetricKind = MetricKind.SLD) -> SpeedBatch:
    """Speeds along a trajectory at an array of times: the batch path.

    The trajectory's block function (``traj.blocks``) is called once and
    its blocks take the formulas of ``_fisher``, all in one
    ``_BATCH_SCOPE`` but for a hand-written factor's block function, which
    runs in the caller's floating-point state. At t = 0 a trajectory's
    ``speed_at_zero`` limit is returned. Negative, NaN and infinite times
    and factors of a size other than ``traj.dim`` raise ``ValueError``; a
    failed point is nan with its error in ``failures``. No times give an
    empty batch.
    """
    t = np.asarray(times, dtype=float)
    if not t.ndim:  # one time, as every transverse sweep takes: checked as a float
        first = last = float(t)
    elif not t.size:
        return SpeedBatch(np.empty(t.shape))
    else:
        first, last = t.min(), t.max()
    _check_range(first, last, t)
    limit = traj.speed_at_zero
    if limit is not None and last == 0.0:  # every point takes the limit
        return SpeedBatch(np.full(np.broadcast_shapes(t.shape, np.shape(limit)), limit))
    blocks = _unscoped_blocks(traj, t)
    with _BATCH_SCOPE():
        return _batch_at(traj, t, metric, blocks or traj.blocks(t), first)


def _batch_at(traj: Trajectory, t: np.ndarray, metric: MetricKind, blocks, first) -> SpeedBatch:
    """``speeds_at`` past its checks, from the ``blocks`` of the block function
    at ``t``, whose earliest time is ``first``."""
    batch = t.shape
    if traj.shape and traj.shape != batch:  # a family's shape, broadcast only where the times' is not () either
        batch = np.broadcast_shapes(batch, traj.shape) if batch else traj.shape
    result = _block_speeds(blocks, batch, metric)
    limit = traj.speed_at_zero
    if limit is None or first > 0.0:
        return result
    at_zero = np.broadcast_to(t == 0.0, result.speeds.shape)
    speeds = np.where(at_zero, limit, result.speeds)
    failures = {i: e for i, e in result.failures.items() if not at_zero.flat[i]}
    return SpeedBatch(speeds, failures)


def speed_at(traj: Trajectory, t: float, metric: MetricKind = MetricKind.SLD) -> float:
    """Instantaneous speed at one time: the point path. A trajectory of
    stated shape () sums its blocks at once: a built-in model with scalar
    parameters on Python floats, by the batch's operations, and a factor on
    numpy's arrays; a state at rest (every derivative 0, so F = 0) reads
    +0.0 with no scaled sum. Anything else is one point of ``speeds_at``.
    The block function is called once either way. A failure raises it."""
    result = None
    if isinstance(t, (int, float)):  # numpy's float64 is a float
        if not 0.0 <= (t := float(t)) < math.inf:
            _check_range(t, t, t)
        limit = traj.speed_at_zero
        if t == 0.0 and isinstance(limit, (int, float)):
            return float(limit)
        if (t > 0.0 or limit is None) and not traj.shape:
            blocks = traj.blocks(t)
            if FISHER_WINDOW[0] <= (fisher := _fisher(metric, blocks, math)) <= FISHER_WINDOW[1]:
                return 0.5 * math.sqrt(fisher)
            if not (peak := max(_moves(blocks))):  # at rest: every move is 0, and so is F
                return 0.0
            shrink, grow = _binary_scale(peak)
            return 0.5 * math.sqrt(_fisher(metric, _scaled(blocks, shrink), math)) * grow
        if t > 0.0 or limit is None:  # a family: one point of the batch, from the blocks at the float time
            blocks = _unscoped_blocks(traj, t)
            with _BATCH_SCOPE():
                result = _batch_at(traj, np.asarray(t), metric, blocks or traj.blocks(t), t)
    if result is None:  # speeds_at returns an array limit unevaluated
        result = speeds_at(traj, t, metric)
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
    stencil = np.empty((3, *xi.shape))
    stencil[0], stencil[1], stencil[2] = xi, xi + h, xi - h
    result = evaluate(stencil)
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
    if (times[1:] - times[:-1] <= 0.0).any():  # np.diff's test, without its call
        raise ValueError("grid must be strictly increasing")
    result = speeds_at(traj, times, metric)
    speeds = result.speeds
    slopes = np.empty_like(speeds)
    slopes[0] = (speeds[1] - speeds[0]) / (times[1] - times[0])
    slopes[-1] = (speeds[-1] - speeds[-2]) / (times[-1] - times[-2])
    if times.size > 2:
        slopes[1:-1] = (speeds[2:] - speeds[:-2]) / (times[2:] - times[:-2])
    return SpeedCurve(metric, times, speeds, slopes, result.failures)
