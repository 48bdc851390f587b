"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from qevspeed import analysis, speed
from qevspeed.cli import TableResult
from qevspeed.errors import NumericalFailure
from qevspeed.metrics import MetricKind, mc_kernel
from qevspeed.models import OpenSystemParams, trajectory_from_key
from qevspeed.speed import (
    DEFAULT_TIME_STEP,
    SpeedBatch,
    Trajectory,
    _binary_scale,
    _fisher,
    _scaled,
    factor_trajectory,
    stencil_step,
)

# Eigenvalues closer than this make the spectral form's eigenvector
# derivatives ill-defined.
EIG_DEGENERACY_TOL = 1e-9

# The oracles on dense states treat eigenvalues below this as inert: about
# 1e4 times eigh's eigenvalue rounding on a unit-trace state, so an
# eigenvalue that is 0 in exact arithmetic is always below it.
INERT_EIGENVALUE_TOL = 1e-12


def libm(func):
    """Oracle for numpy's transcendental ufuncs: the ``math`` function
    ``func`` on a float, or elementwise on an array, one libm call at a
    time."""

    def apply(x):
        if isinstance(x, float):
            return func(x)
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return apply


class LibmNumpy:
    """Stands in for the ``np`` name of a module: numpy, with exp, cos, sin,
    cosh, sinh, tan and tanh taken from libm (``libm``)."""

    def __getattr__(self, name):
        return getattr(np, name)


for _name in ("exp", "cos", "sin", "cosh", "sinh", "tan", "tanh"):
    setattr(LibmNumpy, _name, staticmethod(libm(getattr(math, _name))))


def on_libm(monkeypatch, *modules) -> None:
    """Run the batch of each of ``modules`` on libm's transcendental
    functions, the point path's: both then give the same bits."""
    for module in modules:
        monkeypatch.setattr(module, "np", LibmNumpy())


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def fubini_study_speed(psi: np.ndarray, psi_dot: np.ndarray) -> float:
    """The Fubini-Study speed of a unit vector psi moving at psi_dot: the norm
    of the part of psi_dot orthogonal to psi (the SLD speed of |psi><psi|)."""
    squared = np.vdot(psi_dot, psi_dot).real - abs(np.vdot(psi, psi_dot)) ** 2
    return math.sqrt(max(squared, 0.0))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def model_factor(traj: Trajectory):
    """A factor function (``factor_trajectory``) of any trajectory: its own
    factor block, or one built from a model's ray and pair blocks. A ray is
    the column s phi. A pair [[a, w], [w*, c]] is two Cholesky columns,
    pivoted on the larger diagonal with the signed root as the second
    pivot, [[sqrt a, 0], [w*/sqrt a, s/sqrt a]] when a >= c (and the same
    with the indices swapped otherwise); their derivatives follow by the
    quotient rule. A 0-d time takes the model's point path, on floats."""

    def factor_at(t):
        blocks = traj.blocks(float(t) if np.ndim(t) == 0 else t)
        if blocks[0][0] is None:
            return blocks[0][1], blocks[0][2]
        columns = []  # each a list of (row, entry, derivative)
        for indices, state, move, *ray in blocks:
            if len(state) == 2:
                vector = ray[0] if ray else (1.0,)
                columns.append([(i, state[1] * u, move[1] * u) for i, u in zip(indices, vector)])
                continue
            (i, j), (a, c, wr, wi, s), (da, dc, dwr, dwi, ds) = indices, state, move
            top = np.greater_equal(a, c)
            pivot, dpivot = np.where(top, a, c), np.where(top, da, dc)
            off = np.where(top, wr - 1j * wi, wr + 1j * wi)
            doff = np.where(top, dwr - 1j * dwi, dwr + 1j * dwi)
            root = np.sqrt(pivot)
            droot = dpivot / (2.0 * root)
            lower, dlower = off / root, doff / root - off * droot / pivot
            last, dlast = s / root, ds / root - s * droot / pivot
            first = [(np.where(top, i, j), root, droot), (np.where(top, j, i), lower, dlower)]
            columns += [first, [(np.where(top, j, i), last, dlast)]]
        shape = np.broadcast_shapes(np.shape(t), traj.shape)
        factor = np.zeros(shape + (traj.dim, len(columns)), dtype=complex)
        move = np.zeros_like(factor)
        for k, column in enumerate(columns):
            for row, x, dx in column:
                rows = np.broadcast_to(row, shape)[..., None]
                np.put_along_axis(factor[..., k], rows, np.broadcast_to(x, shape)[..., None], axis=-1)
                np.put_along_axis(move[..., k], rows, np.broadcast_to(dx, shape)[..., None], axis=-1)
        return factor, move

    return factor_at


def _carried(traj: Trajectory) -> dict:
    """The fields of ``traj`` that a trajectory built from it keeps."""
    return {"dim": traj.dim, "params": traj.params, "speed_at_zero": traj.speed_at_zero, "shape": traj.shape}


def conjugate_trajectory(traj: Trajectory, unitary: np.ndarray) -> Trajectory:
    """The trajectory t -> U rho_t U^dagger, as the factor U A_t of
    ``model_factor``, with everything else carried over."""
    u = np.asarray(unitary, dtype=complex)
    factor_at = model_factor(traj)

    def rotated(t):
        factor, move = factor_at(t)
        return u @ factor, u @ move

    return factor_trajectory(rotated, **_carried(traj))


def open_model(key: str, p: OpenSystemParams, **kwargs) -> Trajectory:
    """``trajectory_from_key`` for the open model ``key`` at the alpha and
    width of ``p``; ``kwargs`` are passed on."""
    return trajectory_from_key(
        key, alpha=p.alpha, Gamma_over_gamma0=p.Gamma, markovian_limit=p.markovian_limit, **kwargs
    )


def stacked(func):
    """A factor function (``factor_trajectory``) from ``func``, which takes
    one time and returns (A, A'): both at every time of an array, stacked
    along its axes."""

    def at(times):
        times = np.asarray(times, dtype=float)
        pairs = [[np.asarray(x, dtype=complex) for x in func(float(t))] for t in times.ravel()]
        return tuple(np.stack(xs).reshape(times.shape + xs[0].shape) for xs in zip(*pairs))

    return at


def without_analytic_derivative(traj: Trajectory, step: float = DEFAULT_TIME_STEP) -> Trajectory:
    """Oracle for the analytic derivatives: the factor trajectory of
    ``model_factor``, its derivative replaced by central differences of its
    factors, of half-width ``step`` (one-sided at t = 0)."""
    factor_at = model_factor(traj)

    def differenced(t):
        t = np.asarray(t, dtype=float)
        forward = t - step < 0.0
        minus = np.where(forward, t, t - step)
        width = np.where(forward, step, 2.0 * step)
        return factor_at(t)[0], (factor_at(t + step)[0] - factor_at(minus)[0]) / width[..., None, None]

    return factor_trajectory(differenced, **_carried(traj))


def dense_kernel_speeds(rho, drho, metric: MetricKind = MetricKind.SLD) -> np.ndarray:
    """Oracle on dense states: the speeds of the kernel sum over one dense
    ``np.linalg.eigh`` of every state, whatever its sparsity, with the
    derivative elements |V^dagger drho V| in that eigenbasis. Eigenvalues
    below ``INERT_EIGENVALUE_TOL`` are 0, and pairs of them are dropped: rho
    and its derivative cannot carry the terms of an eigenvalue that touches
    zero, which the factor path adds."""
    values, vectors = np.linalg.eigh(np.asarray(rho, dtype=complex))
    p = np.where(values < INERT_EIGENVALUE_TOL, 0.0, values)
    magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ np.asarray(drho, dtype=complex) @ vectors)
    pk, pl = p[..., :, None], p[..., None, :]
    kernel = mc_kernel(metric, pk, pl, where=pk + pl > 0.0)
    return 0.5 * np.sqrt((kernel * magnitude * magnitude).sum(axis=(-2, -1)))


class InjectedFailure(NumericalFailure):
    """A failure made by a test: nothing in the package fails a single
    point, so the failure rows are exercised with this one."""


def fail_between(monkeypatch, low: float, high: float) -> None:
    """Make every batch (``speed._batch_at``, under ``speeds_at``, a
    family's ``speed_at``, ``speed_curve`` and the CLI) fail each point
    with low < t < high: nan, with an ``InjectedFailure``. Every other
    point keeps its speed."""
    batch_at = speed._batch_at

    def failing(traj, t, metric, blocks, first):
        result = batch_at(traj, t, metric, blocks, first)
        times = np.broadcast_to(t, result.speeds.shape)
        failed = np.flatnonzero((low < times) & (times < high))
        speeds = result.speeds.copy()
        speeds.flat[failed] = math.nan
        failures = {int(i): InjectedFailure(f"injected at t = {times.flat[i]:.6g}") for i in failed}
        return SpeedBatch(speeds, {**result.failures, **failures})

    monkeypatch.setattr(speed, "_batch_at", failing)


def always_scaled_speeds(traj: Trajectory, t, metric: MetricKind = MetricKind.SLD):
    """Oracle for the block formulas' on-demand scale: every point's
    derivatives scaled by ``_binary_scale`` of their largest before
    ``_fisher``, at every point. A float time of a trajectory of shape ()
    runs on Python floats (the point path's), anything else on numpy's
    arrays of the times' and the family's broadcast shape. The block
    function runs in its caller's floating-point state, so this call holds
    the scope that ``speeds_at`` holds around it."""
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        blocks = traj.blocks(t)
    parts = [x for block in blocks for x in block[2]]
    if isinstance(t, float) and not traj.shape:
        shrink, grow = _binary_scale(max(abs(x) for x in parts))
        return 0.5 * math.sqrt(_fisher(metric, _scaled(blocks, shrink), math)) * grow
    with np.errstate(under="ignore"):
        shrink, grow = _binary_scale(functools.reduce(np.maximum, map(np.abs, parts)))
        speeds = 0.5 * np.sqrt(_fisher(metric, _scaled(blocks, shrink), np)) * grow
    return np.broadcast_to(speeds, np.broadcast_shapes(np.shape(t), traj.shape))


class DegenerateSpectrumError(NumericalFailure):
    """Eigenvalue degeneracy makes eigenvector derivatives ill-defined; the
    kernel sum (``speed_at``) stays valid there."""


def speed_spectral_form(
    traj: Trajectory,
    t: float,
    metric: MetricKind = MetricKind.SLD,
    step: float = DEFAULT_TIME_STEP,
) -> float:
    """Reference speed from eigenvalue and eigenvector derivatives,
    independent of the kernel sum:

        S = sqrt( sum_k qdot_k^2
                  + sum_{k != l} c(p_k, p_l) p_k (p_k - p_l)/2 |<Phi_l|Phidot_k>|^2 )

    with q_k = sqrt(p_k). The derivatives are central differences of the
    eigensystems at t -/+ step, each eigenvector phase-aligned with its
    partner at t. Eigenvalues below ``INERT_EIGENVALUE_TOL`` are inert: their terms
    vanish identically, so they are excluded rather than estimated from
    finite-difference noise. Degeneracy among the remaining eigenvalues
    raises ``DegenerateSpectrumError``.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if t - step < 0.0:
        raise ValueError(
            f"t = {t} leaves no room for the central-difference stencil "
            f"of half-width {step}"
        )
    values, base = np.linalg.eigh(np.asarray(traj.state_at(t), dtype=complex))
    values_minus, minus = np.linalg.eigh(np.asarray(traj.state_at(t - step), dtype=complex))
    values_plus, plus = np.linalg.eigh(np.asarray(traj.state_at(t + step), dtype=complex))

    p = np.clip(values, 0.0, None)
    active = np.flatnonzero(values >= INERT_EIGENVALUE_TOL)
    if active.size > 1 and np.min(np.diff(values[active])) < EIG_DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"eigenvalues degenerate within {EIG_DEGENERACY_TOL:.1e} at t = {t:.6g}"
        )

    def aligned(vectors: np.ndarray) -> np.ndarray:
        vectors = vectors.copy()
        for k in active:
            z = np.vdot(base[:, k], vectors[:, k])
            if abs(z) < 0.9:
                raise DegenerateSpectrumError(
                    f"eigenvector pairing unstable across the stencil at "
                    f"t = {t:.6g} (overlap {abs(z):.3f}); likely an eigenvalue "
                    "crossing within the step"
                )
            vectors[:, k] *= z.conjugate() / abs(z)
        return vectors

    vectors_minus, vectors_plus = aligned(minus), aligned(plus)
    q_plus, q_minus = (np.sqrt(np.clip(v, 0.0, None)) for v in (values_plus, values_minus))
    q_dot = (q_plus - q_minus) / (2.0 * step)
    inert = INERT_EIGENVALUE_TOL
    q_dot[(values < inert) & (values_minus < inert) & (values_plus < inert)] = 0.0

    total = float(np.sum(q_dot * q_dot))
    for k in active:
        overlaps = base.conj().T @ ((vectors_plus[:, k] - vectors_minus[:, k]) / (2.0 * step))
        for l in range(traj.dim):
            if l != k:
                weight = float(mc_kernel(metric, p[k], p[l]))
                total += weight * p[k] * (p[k] - p[l]) / 2.0 * abs(overlaps[l]) ** 2
    return math.sqrt(max(total, 0.0))


def speedup_measure(speed_of, xi0: float, step: float | None = None) -> float:
    """Scalar oracle for ``speedup_measures``: the central difference
    (S(xi0 + h) - S(xi0 - h)) / 2h, h = ``stencil_step(xi0)`` by default."""
    if step is None:
        step = float(stencil_step(xi0))
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return (speed_of(xi0 + step) - speed_of(xi0 - step)) / (2.0 * step)


# sigma_y (x) sigma_y in the product basis (|11>, |10>, |01>, |00>)
SPIN_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho: np.ndarray) -> float:
    """Oracle for ``alpha_from_concurrence``: the Wootters concurrence of a
    two-qubit state, max(0, l1 - l2 - l3 - l4) with l_i the descending
    singular values of sqrt(rho~) sqrt(rho), rho~ = (sy x sy) conj(rho) (sy x sy)."""
    values, vectors = np.linalg.eigh(np.asarray(rho, dtype=complex))
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    root_tilde = SPIN_FLIP @ root.conj() @ SPIN_FLIP
    lam = np.linalg.svd(root_tilde @ root, compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def _damping_elements(g: float) -> list[np.ndarray]:
    """Single-qubit operation elements at coherence amplitude g (P = g^2)."""
    keep = np.array([[g, 0.0], [0.0, 1.0]], dtype=complex)
    decay = np.array(
        [[0.0, 0.0], [math.sqrt(max(1.0 - g * g, 0.0)), 0.0]], dtype=complex
    )
    return [keep, decay]


def local_damping_evolve(rho0: np.ndarray, P: float, n: int = 1) -> np.ndarray:
    """Oracle for the open-model states: amplitude damping at population
    factor P applied locally to each of n qubits (n in {1, 2}), as a Kraus
    sum. The pair builders equal it bit for bit."""
    if n not in (1, 2):
        raise ValueError(f"local damping supports 1 or 2 qubits, got n = {n}")
    if not 0.0 <= P <= 1.0:
        raise ValueError(f"population factor must lie in [0, 1], got {P}")
    rho = np.asarray(rho0, dtype=complex)
    expected = 2**n
    if rho.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} state for n = {n}")
    single = _damping_elements(math.sqrt(P))
    elements = single if n == 1 else [np.kron(a, b) for a in single for b in single]
    out = np.zeros_like(rho)
    for e in elements:
        out += e @ rho @ e.conj().T
    return out


# The oracle's bracket ends this far below the pole, or 4 ulps below it
# where that is more, so the end never rounds onto the pole; and a bracket
# of floats near 1e7 reaches two adjacent floats in about 60 halvings.
_ORACLE_POLE_PAD = 1e-9
_ORACLE_MAX_STEPS = 200


def bisect_speedup_end(p: OpenSystemParams, n: int) -> float:
    """Last-bit oracle for ``analysis.speedup_boundaries``: the root on
    branch ``n``, bisected one branch at a time on the scalar
    ``speedup_equation`` until its bracket is two adjacent floats."""
    gamma, kappa = analysis._oscillation_rates(p)
    low = 2.0 * n * math.pi / kappa
    pole = (2.0 * n + 1.0) * math.pi / kappa
    high = pole - max(_ORACLE_POLE_PAD, 4.0 * math.ulp(pole))
    g_low = analysis.speedup_equation(p, low)
    g_high = analysis.speedup_equation(p, high)
    if g_low >= 0.0 or g_high <= 0.0:
        raise AssertionError(
            f"no sign change for the speedup-end equation on "
            f"({low:.6g}, {high:.6g}): g = ({g_low:.3e}, {g_high:.3e})"
        )
    for _ in range(_ORACLE_MAX_STEPS):
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return mid
        g_mid = analysis.speedup_equation(p, mid)
        if (g_mid < 0.0) == (g_low < 0.0):
            low, g_low = mid, g_mid
        else:
            high = mid
    raise AssertionError(f"bisection on branch n = {n} did not reach adjacent floats")


def _format_cell(value: float) -> str:
    return f"{value:.12g}"


def render_csv(result: TableResult) -> str:
    """Oracle for ``cli.render_csv``: the table formatted one value at a time."""
    lines = [f"# {key}: {value}" for key, value in result.header]
    lines.extend(f"# note: {note}" for note in result.notes)
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_cell(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def render_json(result: TableResult) -> str:
    """Oracle for ``cli.render_json``: every value rounded to its printed
    digits one at a time, the whole payload through the ``json`` encoder."""

    def rounded(value: float) -> float:
        return float(f"{float(value):.12g}")

    payload = {
        "config": {key: value for key, value in result.header},
        "columns": result.columns,
        "rows": [[rounded(v) for v in row] for row in result.rows],
        "notes": result.notes,
    }
    return json.dumps(payload, indent=2) + "\n"
