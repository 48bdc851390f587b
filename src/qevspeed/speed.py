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
in one call and sums the kernel over one stacked eigendecomposition
(``kernel_speeds``). ``speed_at`` is its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import NumericalFailure, RankIncreaseError
from .metrics import MetricKind, mc_kernel

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


def _pure_speeds(vectors, drho, metric: MetricKind) -> np.ndarray:
    """Fubini-Study speeds of the top (unit) eigenvectors psi: epsilon times
    the norm of the part of drho psi orthogonal to psi."""
    psi = vectors[..., -1]
    moved = (drho @ psi[..., None])[..., 0]
    squared_norm = (moved.conj()[..., None, :] @ moved[..., :, None])[..., 0, 0].real
    overlap = (psi.conj()[..., None, :] @ moved[..., :, None])[..., 0, 0]
    return metric.epsilon * np.sqrt(np.maximum(squared_norm - np.abs(overlap) ** 2, 0.0))


def _kernel_sums(p, vectors, drho, metric: MetricKind):
    """Kernel-sum speeds, and the derivative-element magnitudes with the
    mask of boundary pairs whose element is not negligible (None when no
    pair is on the boundary)."""
    magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ drho @ vectors)
    pk, pl = p[:, :, None], p[:, None, :]
    kept = pk + pl >= RANK_TOL
    weight = mc_kernel(metric, pk, pl, where=kept)
    with np.errstate(under="ignore"):  # negligible terms flush to zero
        total = (weight * magnitude * magnitude).sum(axis=(1, 2))
    escaping = None if kept.all() else ~kept & (magnitude >= ELEM_TOL)
    return 0.5 * np.sqrt(np.maximum(total, 0.0)), magnitude, escaping


def kernel_speeds(
    rho: np.ndarray,
    drho: np.ndarray,
    metric: MetricKind = MetricKind.SLD,
    times: np.ndarray | None = None,
) -> SpeedBatch:
    """Speeds of stacked states ``rho`` moving at ``drho`` (shape (..., d, d)).

    One stacked eigendecomposition, then per point: the Fubini-Study
    reduction for pure states (second-largest eigenvalue below
    ``PURE_STATE_TOL``), else the kernel sum, where eigenvalue pairs summing
    below ``RANK_TOL`` are dropped when their derivative elements are
    negligible and fail the point with ``RankIncreaseError`` otherwise.
    ``times`` only labels those errors. Non-finite or non-Hermitian states
    raise ``ValueError`` for the whole batch.
    """
    rho = np.asarray(rho, dtype=complex)
    batch, dim = rho.shape[:-2], rho.shape[-1]
    rho = rho.reshape(-1, dim, dim)
    drho = np.asarray(drho, dtype=complex).reshape(rho.shape)
    values, vectors = linalg.eigh_stack(rho)
    p = np.maximum(values, 0.0)

    pure = p[:, -2] < PURE_STATE_TOL
    mixed = ~pure
    n_pure = np.count_nonzero(pure)
    if n_pure == len(rho):
        return SpeedBatch(_pure_speeds(vectors, drho, metric).reshape(batch))
    if n_pure == 0:
        speeds, magnitude, escaping = _kernel_sums(p, vectors, drho, metric)
    else:
        speeds = np.empty(len(rho))
        speeds[pure] = _pure_speeds(vectors[pure], drho[pure], metric)
        speeds[mixed], magnitude, escaping = _kernel_sums(
            p[mixed], vectors[mixed], drho[mixed], metric
        )

    failures: dict[int, NumericalFailure] = {}
    if escaping is not None and escaping.any():
        labels = np.broadcast_to(math.nan if times is None else times, batch).ravel()
        index = np.flatnonzero(mixed)
        for row in np.flatnonzero(escaping.any(axis=(1, 2))):
            k, l = divmod(int(np.argmax(escaping[row])), dim)
            i = int(index[row])
            failures[i] = RankIncreaseError(float(labels[i]), (k, l), float(magnitude[row, k, l]))
            speeds[i] = math.nan
    return SpeedBatch(speeds.reshape(batch), failures)


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
