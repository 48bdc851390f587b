"""Instantaneous speed of evolution along a density-operator trajectory.

The speed at time t is

    S = (1/2) * sqrt( sum_{k,l} c(p_k, p_l) |<Phi_k| drho/dt |Phi_l>|^2 )

over the eigensystem {p_k, Phi_k} of rho_t, with c the metric kernel. The
sum needs no eigenvector derivatives, so it stays valid through
degeneracies (its diagonal kernel is c(p, p) = 1/p). The test suite checks
it against the spectral form built from eigenvalue and eigenvector
derivatives.

The kernel sum is evaluated in batches: ``speeds_at`` takes an array of
times (and a model family built on arrays of parameters) and sums the
kernel block by block; cross-block elements of drho vanish, so each
diagonal block contributes its own terms. The six built-in models are X
states and state their blocks themselves, of one and two indices, whose
eigensystems are closed forms (``linalg.pair_block``): those models need
no LAPACK call. Any other trajectory is one dense block, ``pair_block``
for d <= 2 and one stacked ``linalg.eigh_stack`` otherwise
(``kernel_speeds``). ``speed_at`` is the one-point case, evaluated on
Python floats by the same formulas and equal to the batch bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import NumericalFailure, RankIncreaseError
from .metrics import MetricKind, kernel_value, mc_kernel

# Eigenvalue-pair sums below RANK_TOL are boundary terms: dropped when the
# corresponding derivative element is below ELEM_TOL, an error otherwise
# (the dynamics would be increasing the state rank).
RANK_TOL = 1e-12
ELEM_TOL = 1e-8

# A state is treated as pure when its second-largest eigenvalue is below this:
# about 1e4 times eigh's eigenvalue rounding on a unit-trace state, and the
# same cut as RANK_TOL.
PURE_STATE_TOL = 1e-12

# Half-width of the slope stencil per unit max(1, |xi|) (``stencil_step``).
# The truncation error of a central difference grows as h^2 and its rounding
# error as eps/h; they balance near eps^(1/3), about 6e-6.
DEFAULT_TIME_STEP = 1e-5


@dataclass(frozen=True)
class Trajectory:
    """A differentiable curve t -> rho_t of density operators on [0, horizon].

    ``state_at`` takes an array of times and returns rho_t at each, stacked
    along the leading axes: Hermitian, trace-one, positive-semidefinite
    matrices of size ``dim``. ``derivative_at`` returns their analytic time
    derivatives, stacked the same way. The built-in models broadcast the
    times against arrays of parameters (a family of curves evaluated
    together), and both their callables carry the model's block function as
    an attribute ``blocks``, which ``speeds_at`` evaluates in place of the
    dense matrices. ``params`` records the numbers the trajectory was built
    from. ``speed_at_zero`` is the limit of the speed at t = 0, returned
    there in place of an evaluation, for trajectories that start on the
    boundary of the state space (where the kernel sum is 0/0); it is
    ``inf`` where the speed diverges.
    """

    dim: int
    horizon: float
    state_at: Callable[[np.ndarray], np.ndarray]
    derivative_at: Callable[[np.ndarray], np.ndarray]
    params: dict[str, float] = field(default_factory=dict)
    speed_at_zero: float | np.ndarray | None = None


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
    factors normal floats."""
    if isinstance(peak, float):
        e = min(max(math.frexp(peak)[1] - 1, -1021), 1022)
        return math.ldexp(1.0, -e), math.ldexp(1.0, e)
    e = np.clip(np.frexp(peak)[1] - 1, -1021, 1022)
    return np.ldexp(1.0, -e), np.ldexp(1.0, e)


def _block_terms(blocks, shrink):
    """The eigenvalue columns of every block, and the kernel-sum terms
    (k, l, |<k| shrink * drho |l>|) over the pairs of columns within a block
    (the elements between blocks vanish).

    A block is (indices, state entries, derivative entries), Python numbers
    at one point or arrays over a batch. A block of one index holds (p,) and
    (dp,) and is its own eigensystem; a block of two holds its diagonal and
    upper entries (a, c, w) and (da, dc, dw) and takes ``linalg.pair_block``;
    a larger one (batches only) holds its (N, d, d) stacks and takes
    ``linalg.eigh_stack``.
    """
    values, terms = [], []
    for indices, state, move in blocks:
        k = len(values)
        if len(indices) == 1:
            values.append(state[0].real)
            terms.append((k, k, abs(move[0].real * shrink)))
        elif len(indices) == 2:
            (a, c, w), (da, dc, dw) = state, move
            low, high, d_low, d_high, d_cross = linalg.pair_block(
                a.real, c.real, w.real, w.imag,
                da.real * shrink, dc.real * shrink, dw.real * shrink, dw.imag * shrink,
            )
            values += [low, high]
            terms += [(k, k, d_low), (k + 1, k + 1, d_high), (k, k + 1, d_cross), (k + 1, k, d_cross)]
        else:
            p, vectors = linalg.eigh_stack(state[0])
            moved = move[0] * shrink[:, None, None]
            magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ moved @ vectors)
            values += list(p.T)
            size = len(indices)
            terms += [(k + a, k + b, magnitude[:, a, b]) for a in range(size) for b in range(size)]
    return values, terms


def _point_speed(metric: MetricKind, values, terms, grow: float):
    """``_batch_speeds`` at one point, on Python floats by the same
    operations: its speed, and the terms that escape (nan speed) or None."""
    p = [max(v, 0.0) for v in values]
    order = sorted(p)
    if order[-2] < PURE_STATE_TOL:
        top = p.index(order[-1])
        squared = 0.0
        for k, l, m in terms:
            if l == top and k != l:
                squared = squared + m * m
        return metric.epsilon * math.sqrt(squared) * grow, None
    total = 0.0
    escaping = []
    for k, l, m in terms:
        if p[k] + p[l] >= RANK_TOL:
            total = total + kernel_value(metric, p[k], p[l]) * m * m
        elif m * grow >= ELEM_TOL:
            escaping.append((k, l, m))
    if escaping:
        return math.nan, escaping
    return 0.5 * math.sqrt(total) * grow, None


def _batch_speeds(metric: MetricKind, values, terms, grow: np.ndarray):
    """Speeds from the eigenvalue columns and terms of ``_block_terms``, and
    the terms that escape at each failed point (whose speed is nan).

    A point whose second-largest eigenvalue is below ``PURE_STATE_TOL`` takes
    the Fubini-Study reduction: epsilon times the root of the terms into the
    top eigenvalue's column. Any other takes the kernel sum, where terms
    whose eigenvalues sum below ``RANK_TOL`` are dropped when their element
    is below ``ELEM_TOL`` and escape otherwise.
    """
    p = np.maximum(np.stack(values, axis=-1), 0.0)
    top = p.argmax(axis=-1)
    pure = np.sort(p, axis=-1)[:, -2] < PURE_STATE_TOL
    total = squared = 0.0
    escapes = []
    for k, l, m in terms:
        x, y = p[:, k], p[:, l]
        kept = x + y >= RANK_TOL
        total = total + mc_kernel(metric, x, y, where=kept) * m * m
        if k != l:
            squared = squared + np.where(top == l, m * m, 0.0)
        if not kept.all():
            escapes.append((k, l, m, ~kept & ~pure & (m * grow >= ELEM_TOL)))
    speeds = np.where(pure, metric.epsilon * np.sqrt(squared) * grow, 0.5 * np.sqrt(total) * grow)
    failed = np.logical_or.reduce([flags for *_, flags in escapes], initial=False)
    speeds[failed] = math.nan
    escaping = {
        int(i): [(k, l, float(m[i])) for k, l, m, flags in escapes if flags[i]] for i in np.flatnonzero(failed)
    }
    return speeds, escaping


def _rank_increase(values, escaping, grow: float, time: float) -> RankIncreaseError:
    """The error of a point whose terms (k, l, |D_kl|) escape, at the first
    pair in the order of a dense eigensolver: eigenvalues ascending, ties in
    column order."""
    rank = [0] * len(values)
    for position, column in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        rank[column] = position
    k, l, m = min(escaping, key=lambda term: (rank[term[0]], rank[term[1]]))
    return RankIncreaseError(time, (rank[k], rank[l]), m * grow)


def _block_speeds(blocks, batch: tuple[int, ...], metric: MetricKind, times) -> SpeedBatch:
    """``kernel_speeds`` of diagonal blocks laid out as ``_block_terms`` reads
    them, with entries that broadcast to ``batch`` (``batch + (d, d)`` for a
    block of d > 2 indices). A pair whose coherence is zero in the state and
    the derivative at every point is two blocks of one index, and blocks
    are taken in the order of their first index."""
    point = math.prod(batch) == 1 and all(len(indices) <= 2 for indices, *_ in blocks)

    def flat(x, size: int):
        if point:
            return x if type(x) in (float, complex) else x.item()
        if size > 2:
            return np.reshape(x, (-1, size, size))
        return (x if np.shape(x) == batch else np.broadcast_to(x, batch)).reshape(-1)

    moving = bool if point else np.any
    split = []
    for indices, state, move in blocks:
        size = len(indices)
        state, move = [flat(x, size) for x in state], [flat(x, size) for x in move]
        if size == 2 and not (moving(state[2]) or moving(move[2])):
            split += [((i,), [x], [dx]) for i, x, dx in zip(indices, state, move)]
        else:
            split.append((indices, state, move))
    blocks = sorted(split, key=lambda block: block[0][0])
    parts = [part for *_, move in blocks for x in move for part in (x.real, x.imag)]
    if point:
        shrink, grow = _binary_scale(max(map(abs, parts)))
        values, terms = _block_terms(blocks, shrink)
        speed, escaping = _point_speed(metric, values, terms, grow)
        speeds, escaping = np.full(batch, speed), {} if escaping is None else {0: escaping}
    else:
        peak = np.max([np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0) for x in parts], axis=0)
        shrink, grow = _binary_scale(peak)
        with np.errstate(under="ignore"):  # negligible terms flush to zero
            values, terms = _block_terms(blocks, shrink)
            speeds, escaping = _batch_speeds(metric, values, terms, grow)
        speeds = speeds.reshape(batch)
    failures: dict[int, NumericalFailure] = {}
    if escaping:
        labels = np.broadcast_to(math.nan if times is None else times, batch).ravel()
        for i, out in escaping.items():
            column = [float(np.ravel(v)[i]) for v in values]
            scale = float(np.ravel(grow)[i])
            failures[i] = _rank_increase(column, out, scale, float(labels[i]))
    return SpeedBatch(speeds, failures)


def kernel_speeds(
    rho: np.ndarray,
    drho: np.ndarray,
    metric: MetricKind = MetricKind.SLD,
    times: np.ndarray | None = None,
) -> SpeedBatch:
    """Speeds of stacked states ``rho`` moving at ``drho`` (shape (..., d, d));
    ``drho`` is Hermitian, as ``rho_dot`` returns it.

    The matrices are one block: ``pair_block`` for d <= 2, one stacked
    ``eigh_stack`` otherwise. Each point's ``drho`` is scaled by a power of
    two near its largest entry before it is squared (``_binary_scale``);
    then each point takes the rules of ``_batch_speeds`` (on Python floats
    at one point with d <= 2), failing with ``RankIncreaseError``. ``times``
    only labels the errors. Non-finite or non-Hermitian states raise
    ``ValueError`` for the whole batch.
    """
    rho = np.asarray(rho, dtype=complex)
    batch, dim = rho.shape[:-2], rho.shape[-1]
    drho = np.asarray(drho, dtype=complex).reshape(rho.shape)
    indices = tuple(range(dim))
    if dim > 2:  # eigh_stack checks the stack
        block = (indices, [rho], [drho])
    else:
        linalg.hermitian_stack(rho.reshape(-1, dim, dim))
        cells = [(i, i) for i in indices] + ([(0, 1)] if dim == 2 else [])
        block = (indices, [rho[..., i, j] for i, j in cells], [drho[..., i, j] for i, j in cells])
    return _block_speeds([block], batch, metric, times)


def speeds_at(traj: Trajectory, times, metric: MetricKind = MetricKind.SLD) -> SpeedBatch:
    """Speeds along a trajectory at an array of times, in one batch.

    A built-in model states its diagonal blocks: ``state_at`` and
    ``derivative_at`` carry one block function as ``blocks``, called once
    and summed block by block. Any other trajectory (including a model with
    either callable replaced) is one dense block: one call of each callable,
    then ``kernel_speeds``. At t = 0 a trajectory's ``speed_at_zero`` limit
    is returned. Times outside [0, horizon] and dense states of a size
    other than ``traj.dim`` raise ``ValueError``; a failed point is nan with
    its error in ``failures``. No times give an empty batch.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        return SpeedBatch(np.empty(t.shape))
    first, last = (float(t), float(t)) if t.ndim == 0 else (t.min(), t.max())
    if not (first >= 0.0 and last <= traj.horizon):
        bad = t[~((t >= 0.0) & (t <= traj.horizon))].flat[0]
        raise ValueError(f"t = {bad} outside trajectory range [0, {traj.horizon}]")
    limit = traj.speed_at_zero
    if limit is not None and last == 0.0:  # every point takes the limit
        return SpeedBatch(np.full(np.broadcast_shapes(t.shape, np.shape(limit)), limit))
    blocks = getattr(traj.state_at, "blocks", None)
    with np.errstate(under="ignore"):  # tiny entries of late states flush to zero
        if blocks is not None and blocks is getattr(traj.derivative_at, "blocks", None):
            blocks = blocks(t)
            shapes = [x.shape for _, state, move in blocks for x in state + move if isinstance(x, np.ndarray)]
            result = _block_speeds(blocks, np.broadcast_shapes(*shapes), metric, t)
        else:
            rho = np.asarray(traj.state_at(t), dtype=complex)
            if rho.shape[-2:] != (traj.dim, traj.dim):
                raise ValueError(f"trajectory declares dim={traj.dim} but its states have shape {rho.shape[-2:]}")
            result = kernel_speeds(rho, rho_dot(traj, t), metric, t)
    if limit is None or first > 0.0:
        return result
    at_zero = np.broadcast_to(t == 0.0, result.speeds.shape)
    speeds = np.where(at_zero, limit, result.speeds)
    failures = {i: e for i, e in result.failures.items() if not at_zero.flat[i]}
    return SpeedBatch(speeds, failures)


def speed_at(traj: Trajectory, t: float, metric: MetricKind = MetricKind.SLD) -> float:
    """Instantaneous speed at one time: the one-point case of ``speeds_at``.

    A failed evaluation raises its error (``RankIncreaseError`` when a
    boundary eigenvalue pair carries a non-negligible derivative element).
    """
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
