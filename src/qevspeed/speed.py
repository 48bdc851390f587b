"""Instantaneous speed of evolution along a density-operator trajectory.

The speed at time t is

    S = (1/2) * sqrt( sum_{k,l} c(p_k, p_l) |<Phi_k| drho/dt |Phi_l>|^2 )

over the eigensystem {p_k, Phi_k} of rho_t, with c the metric kernel. The
sum needs no eigenvector derivatives, so it stays valid through
degeneracies (its diagonal kernel is c(p, p) = 1/p). The test suite checks
it against the spectral form built from eigenvalue and eigenvector
derivatives.

The kernel sum is evaluated in batches: ``speeds_at`` takes an array of
times (and a model family built on arrays of parameters), builds all states
in one call and sums the kernel block by block (``kernel_speeds``). The
stack splits into the diagonal blocks that its sparsity pattern allows;
cross-block elements of drho vanish, so each block contributes its own
terms. Blocks of one and two indices, which are all the blocks of the six
built-in models, have closed-form eigensystems (``linalg.pair_block``), so
those models need no LAPACK call; larger blocks go through one stacked
``linalg.eigh_stack``. ``speed_at`` is the one-point case, evaluated on
Python floats by the same formulas and equal to the batch bit for bit.
"""

from __future__ import annotations

import functools
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
    together). ``params`` records the numbers the trajectory was built from.
    ``speed_at_zero`` is the limit of the speed at t = 0, returned there in
    place of an evaluation, for trajectories that start on the boundary of
    the state space (where the kernel sum is 0/0); it is ``inf`` where the
    speed diverges.
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


@functools.lru_cache(maxsize=256)
def _components(dim: int, pattern: bytes) -> tuple[tuple[int, ...], ...]:
    """The diagonal blocks a d x d sparsity pattern (row-major bytes of a
    boolean array) allows: the connected components of its nonzero entries,
    each ascending, ordered by their first index."""
    blocks, seen = [], [False] * dim
    for start in range(dim):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(dim):
                if (pattern[i * dim + j] or pattern[j * dim + i]) and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


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


def _block_terms(blocks, rho_at, drho_at, shrink):
    """The eigenvalue columns of every block, and the kernel-sum terms
    (k, l, |<k| shrink * drho |l>|) over the pairs of columns within a block
    (the elements between blocks vanish).

    ``rho_at(i, j)`` and ``drho_at(i, j)`` read an entry of one point (Python
    numbers) or of every point of a batch (arrays). A block of one index is
    its own eigensystem, a block of two takes ``linalg.pair_block``, and a
    larger one (batches only) ``linalg.eigh_stack``.
    """
    values, terms = [], []
    for block in blocks:
        k = len(values)
        if len(block) == 1:
            (i,) = block
            d = drho_at(i, i).real * shrink
            values.append(rho_at(i, i).real)
            terms.append((k, k, abs(d)))
        elif len(block) == 2:
            i, j = block
            w, dw = rho_at(i, j), drho_at(i, j)
            low, high, d_low, d_high, d_cross = linalg.pair_block(
                rho_at(i, i).real, rho_at(j, j).real, w.real, w.imag,
                drho_at(i, i).real * shrink, drho_at(j, j).real * shrink, dw.real * shrink, dw.imag * shrink,
            )
            values += [low, high]
            terms += [(k, k, d_low), (k + 1, k + 1, d_high), (k, k + 1, d_cross), (k + 1, k, d_cross)]
        else:
            rows = np.array(block)
            p, vectors = linalg.eigh_stack(rho_at(rows[:, None], rows))
            moved = drho_at(rows[:, None], rows) * shrink[:, None, None]
            magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ moved @ vectors)
            values += list(p.T)
            size = len(block)
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


def kernel_speeds(
    rho: np.ndarray,
    drho: np.ndarray,
    metric: MetricKind = MetricKind.SLD,
    times: np.ndarray | None = None,
) -> SpeedBatch:
    """Speeds of stacked states ``rho`` moving at ``drho`` (shape (..., d, d));
    ``drho`` is Hermitian, as ``rho_dot`` returns it.

    The stack splits into the diagonal blocks its union sparsity pattern
    allows: the connected components of the entries that are nonzero in
    ``rho`` or ``drho`` at any point. Blocks of one and two indices have
    closed-form eigensystems; larger ones go through ``eigh_stack``. Each
    point's ``drho`` is scaled by a power of two near its largest entry
    before it is squared (``_binary_scale``). Then per point: the
    Fubini-Study reduction for pure states (second-largest eigenvalue below
    ``PURE_STATE_TOL``), else the kernel sum, where eigenvalue pairs summing
    below ``RANK_TOL`` are dropped when their derivative elements are below
    ``ELEM_TOL`` and fail the point with ``RankIncreaseError`` otherwise. A
    one-point stack runs the same formulas on Python floats. ``times`` only
    labels the errors. Non-finite or non-Hermitian states raise
    ``ValueError`` for the whole batch.
    """
    rho = np.asarray(rho, dtype=complex)
    batch, dim = rho.shape[:-2], rho.shape[-1]
    rho = linalg.hermitian_stack(rho.reshape(-1, dim, dim))
    drho = np.ascontiguousarray(drho, dtype=complex).reshape(rho.shape)
    parts = drho.view(float)  # real and imaginary parts, side by side
    blocks = _components(dim, ((rho != 0.0) | (drho != 0.0)).any(axis=0).tobytes())
    if len(rho) == 1 and max(map(len, blocks)) <= 2:
        entries, moves = rho[0].tolist(), drho[0].tolist()
        shrink, grow = _binary_scale(max(map(abs, parts.ravel().tolist())))
        values, terms = _block_terms(blocks, lambda i, j: entries[i][j], lambda i, j: moves[i][j], shrink)
        speed, escaping = _point_speed(metric, values, terms, grow)
        speeds, escaping = np.full(batch, speed), {} if escaping is None else {0: escaping}
    else:
        shrink, grow = _binary_scale(np.abs(parts).max(axis=(1, 2), initial=0.0))
        with np.errstate(under="ignore"):  # negligible terms flush to zero
            values, terms = _block_terms(blocks, lambda i, j: rho[:, i, j], lambda i, j: drho[:, i, j], shrink)
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


def speeds_at(traj: Trajectory, times, metric: MetricKind = MetricKind.SLD) -> SpeedBatch:
    """Speeds along a trajectory at an array of times, in one batch.

    States and derivatives come from one call of each builder; the kernel
    sum is ``kernel_speeds``. At t = 0 a trajectory's ``speed_at_zero``
    limit is returned. Times outside [0, horizon] and states of a size other
    than ``traj.dim`` raise ``ValueError``; a failed point is nan with its
    error in ``failures``. No times give an empty batch.
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
    with np.errstate(under="ignore"):  # tiny entries of late states flush to zero
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
