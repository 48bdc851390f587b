"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from qevspeed import analysis
from qevspeed.cli import TableResult
from qevspeed.errors import NumericalFailure, RankIncreaseError
from qevspeed.metrics import MetricKind, mc_kernel
from qevspeed.models import OpenSystemParams, trajectory_from_key
from qevspeed.speed import (
    DEFAULT_TIME_STEP,
    ELEM_TOL,
    PURE_STATE_TOL,
    RANK_TOL,
    SpeedBatch,
    Trajectory,
    stencil_step,
)

# Eigenvalues closer than this make the spectral form's eigenvector
# derivatives ill-defined.
EIG_DEGENERACY_TOL = 1e-9


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


def conjugate_trajectory(traj: Trajectory, unitary: np.ndarray) -> Trajectory:
    """The trajectory t -> U rho_t U^dagger with everything else carried
    over but the block function: it is dense."""
    u = np.asarray(unitary, dtype=complex)
    u_dag = u.conj().T
    state, derivative = traj.state_at, traj.derivative_at
    return dataclasses.replace(
        traj,
        state_at=lambda t: u @ state(t) @ u_dag,
        derivative_at=lambda t: u @ derivative(t) @ u_dag,
        blocks=None,
    )


def open_model(key: str, p: OpenSystemParams, **kwargs) -> Trajectory:
    """``trajectory_from_key`` for the open model ``key`` at the alpha and
    width of ``p``; ``kwargs`` are passed on."""
    return trajectory_from_key(
        key, alpha=p.alpha, Gamma_over_gamma0=p.Gamma, markovian_limit=p.markovian_limit, **kwargs
    )


def stacked(func):
    """An array-valued trajectory callable from ``func``, which takes one
    time: its matrices at every time of an array, stacked along its axes."""

    def at(times):
        times = np.asarray(times, dtype=float)
        values = [np.asarray(func(float(t)), dtype=complex) for t in times.ravel()]
        return np.stack(values).reshape(times.shape + values[0].shape)

    return at


def without_analytic_derivative(traj: Trajectory, step: float = DEFAULT_TIME_STEP) -> Trajectory:
    """Oracle for the analytic derivatives: the dense trajectory with its
    derivative replaced by central differences of its states, of half-width
    ``step`` (one-sided at t = 0)."""
    state = traj.state_at

    def derivative(t):
        t = np.asarray(t, dtype=float)
        forward = t - step < 0.0
        minus = np.where(forward, t, t - step)
        width = np.where(forward, step, 2.0 * step)
        return (state(t + step) - state(minus)) / width[..., None, None]

    return dataclasses.replace(traj, derivative_at=derivative, blocks=None)


def leaking_trajectory(low: float, high: float, **fields) -> Trajectory:
    """A constant rank-2 state whose derivative leaves its support for
    low < t < high, where every evaluation fails with a
    ``RankIncreaseError``; ``fields`` are further ``Trajectory`` fields."""
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    leak = np.zeros((4, 4), dtype=complex)
    leak[2, 3] = leak[3, 2] = 1e-3

    def state(t):
        return np.broadcast_to(rho, np.shape(t) + (4, 4)).copy()

    def derivative(t):
        inside = (low < np.asarray(t)) & (np.asarray(t) < high)
        return np.where(inside[..., None, None], leak, 0.0)

    return Trajectory(dim=4, state_at=state, derivative_at=derivative, **fields)


def rank_leaking_trajectory(key: str, **kwargs) -> Trajectory:
    """A stand-in for ``trajectory_from_key`` that leaks for 1.9 < t < 2.1,
    with a speed limit of 1 at t = 0."""
    return leaking_trajectory(1.9, 2.1, speed_at_zero=1.0)


def dense_kernel_speeds(rho, drho, metric: MetricKind = MetricKind.SLD, times=None) -> SpeedBatch:
    """Oracle for ``kernel_speeds``: one dense ``np.linalg.eigh`` of every
    state, whatever its sparsity, and the derivative elements
    |V^dagger drho V| in that eigenbasis. The same rules follow: the
    Fubini-Study reduction when the second-largest eigenvalue is below
    ``PURE_STATE_TOL`` (summed over the top eigenvector's column), else the
    kernel sum with the ``RANK_TOL``/``ELEM_TOL`` masks; a failed point
    names its first escaping pair in ascending eigenvalue order."""
    rho = np.asarray(rho, dtype=complex)
    batch, dim = rho.shape[:-2], rho.shape[-1]
    rho = rho.reshape(-1, dim, dim)
    drho = np.asarray(drho, dtype=complex).reshape(rho.shape)
    values, vectors = np.linalg.eigh(rho)
    p = np.maximum(values, 0.0)
    magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ drho @ vectors)
    pure = p[:, -2] < PURE_STATE_TOL
    into_top = magnitude[:, :-1, -1]
    fubini_study = metric.epsilon * np.sqrt((into_top * into_top).sum(axis=1))
    pk, pl = p[:, :, None], p[:, None, :]
    kept = pk + pl >= RANK_TOL
    total = (mc_kernel(metric, pk, pl, where=kept) * magnitude * magnitude).sum(axis=(1, 2))
    speeds = np.where(pure, fubini_study, 0.5 * np.sqrt(total))
    escaping = ~kept & (magnitude >= ELEM_TOL) & ~pure[:, None, None]
    labels = np.broadcast_to(math.nan if times is None else times, batch).ravel()
    failures = {}
    for row in np.flatnonzero(escaping.any(axis=(1, 2))):
        k, l = divmod(int(np.argmax(escaping[row])), dim)
        failures[int(row)] = RankIncreaseError(float(labels[row]), (k, l), float(magnitude[row, k, l]))
        speeds[row] = math.nan
    return SpeedBatch(speeds.reshape(batch), failures)


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
    partner at t. Eigenvalues below ``RANK_TOL`` are inert: their terms
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
    active = np.flatnonzero(values >= RANK_TOL)
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
    q_dot[(values < RANK_TOL) & (values_minus < RANK_TOL) & (values_plus < RANK_TOL)] = 0.0

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
