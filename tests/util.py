"""Shared helpers for the test suite."""

from __future__ import annotations

import decimal
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qevspeed import analysis, linalg
from qevspeed.cli import TableResult
from qevspeed.errors import NumericalFailure
from qevspeed.metrics import MetricKind
from qevspeed.models import OpenSystemParams, trajectory_from_key
from qevspeed.speed import (
    DEFAULT_TIME_STEP,
    Trajectory,
    _binary_scale,
    _fisher,
    _scaled,
    stencil_step,
)

# Eigenvalues closer than this make the spectral form's eigenvector
# derivatives ill-defined.
EIG_DEGENERACY_TOL = 1e-9

# The oracles on dense states treat eigenvalues below this as inert: about
# 1e4 times eigh's eigenvalue rounding on a unit-trace state, so an
# eigenvalue that is 0 in exact arithmetic is always below it.
INERT_EIGENVALUE_TOL = 1e-12

# A factor's singular value at or below TOUCH_TOL times its largest counts as 0 (``factor_speeds``). Above it, the
# decomposition's vectors err by about eps sigma_max / sigma, and the kernel sum's error grows as the square of that;
# below it, the touch rule errs by about sigma / sigma_max. The two errors meet near eps^(2/3), about 2^-35.
TOUCH_TOL = 2.0**-35


def mc_kernel(kind: MetricKind, x, y, where=True) -> np.ndarray:
    """The metric kernel c(x, y) elementwise over broadcast arrays of
    eigenvalues: 2 / (x + y) under SLD, 4 / (sqrt(x) + sqrt(y))^2 under WY,
    the latter accurate for tiny arguments. Unchecked; entries where
    ``where`` is False (the boundary pairs with x + y = 0, which callers
    must drop) are 0, from a division by infinity."""
    if kind is MetricKind.SLD:
        return 2.0 / np.where(where, np.add(x, y), np.inf)
    root = np.where(where, np.sqrt(x) + np.sqrt(y), np.inf)
    return 4.0 / (root * root)


@dataclass(frozen=True)
class FactorTrajectory:
    """Oracle for the block formulas: the curve t -> A_t A_t^dagger of a
    hand-written factor, whose speeds ``factor_speeds`` sums from one
    singular value decomposition, independent of the blocks' layout.

    ``factor_at`` takes an array of times and returns (A_t, A'_t), the
    factors and their analytic time derivatives stacked along the times'
    shape, each of shape (..., dim, r): the columns [K_i psi] of a Kraus sum
    or a purification give one directly."""

    factor_at: Callable[[np.ndarray], tuple]
    dim: int

    def factors(self, t) -> tuple[np.ndarray, np.ndarray]:
        factor, move = (np.asarray(x, dtype=complex) for x in self.factor_at(np.asarray(t, dtype=float)))
        if factor.shape[-2] != self.dim:
            raise ValueError(f"a factor trajectory declares dim={self.dim} but its factors have {factor.shape[-2]} rows")
        return factor, move

    def state_at(self, t) -> np.ndarray:
        factor, _ = self.factors(t)
        return factor @ factor.conj().swapaxes(-2, -1)

    def derivative_at(self, t) -> np.ndarray:
        factor, move = self.factors(t)
        half = move @ factor.conj().swapaxes(-2, -1)
        return half + half.conj().swapaxes(-2, -1)


def factor_speeds(traj: FactorTrajectory, t, metric: MetricKind = MetricKind.SLD) -> np.ndarray:
    """Speeds of a ``FactorTrajectory`` at the times ``t``, one per stacked
    factor, from the decomposition A = W Sigma V^dagger of the stack
    (``linalg.svd_stack``).

    With B = W^dagger A' V, the derivative in the basis W is M = X + X^dagger,
    X = B Sigma^T, and F is its kernel sum over the eigenvalues sigma^2,
    whose diagonal terms are 4 (Re B_kk)^2. A singular value at or below
    ``TOUCH_TOL`` times the largest counts as 0: a null row l and a null
    column k (past the singular values too) add 4 |B_lk|^2, the limit of the
    terms of eigenvalues that touch zero, whatever the basis of the null
    spaces. F is summed unscaled, so it must be a finite float.
    """
    factor, move = traj.factors(t)
    w, sigma, vh = linalg.svd_stack(factor)
    d, r, n = w.shape[-1], vh.shape[-1], sigma.shape[-1]
    left, right = (np.zeros(sigma.shape[:-1] + (k,)) for k in (d, r))  # Sigma's diagonal, padded on either side
    left[..., :n] = right[..., :n] = np.where(sigma <= TOUCH_TOL * sigma[..., :1], 0.0, sigma)
    pk, pl = left[..., :, None] ** 2, left[..., None, :] ** 2
    b = w.conj().swapaxes(-2, -1) @ move @ vh.conj().swapaxes(-2, -1)
    x = (b * right[..., None, :]) @ np.eye(r, d)
    m = x + x.conj().swapaxes(-2, -1)
    total = (mc_kernel(metric, pk, pl, where=pk + pl > 0.0) * (m.real**2 + m.imag**2)).sum(axis=(-2, -1))
    touched = np.where((left[..., :, None] == 0.0) & (right[..., None, :] == 0.0), b.real**2 + b.imag**2, 0.0)
    return 0.5 * np.sqrt(total + 4.0 * touched.sum(axis=(-2, -1)))


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


def model_factor(traj: Trajectory | FactorTrajectory):
    """A factor function (``FactorTrajectory``) of any trajectory: its own
    factor, or one built from a model's ray and pair blocks. A ray is
    the column s phi. A pair [[a, w], [w*, c]] is two Cholesky columns,
    pivoted on the larger diagonal with the signed root as the second
    pivot, [[sqrt a, 0], [w*/sqrt a, s/sqrt a]] when a >= c (and the same
    with the indices swapped otherwise); their derivatives follow by the
    quotient rule. The blocks state a closed model's coherence at phase 0,
    so w and w' are read from the dense states (``state_at`` and
    ``derivative_at``), which carry the phase, and the factor is one of the
    curve itself. A 0-d time takes the model's point path, on floats."""
    if isinstance(traj, FactorTrajectory):
        return traj.factors

    def factor_at(t):
        t = float(t) if np.ndim(t) == 0 else t
        blocks, rho, drho = traj.blocks(t), traj.state_at(t), traj.derivative_at(t)
        columns = []  # each a list of (row, entry, derivative)
        for indices, state, move, *ray in blocks:
            if len(state) == 2:
                vector = ray[0] if ray else (1.0,)
                columns.append([(i, state[1] * u, move[1] * u) for i, u in zip(indices, vector)])
                continue
            (i, j), (a, c, s), (da, dc, ds) = indices, state[:2] + state[4:], move[:2] + move[4:]
            top = np.greater_equal(a, c)
            pivot, dpivot = np.where(top, a, c), np.where(top, da, dc)
            off, doff = np.where(top, rho[..., j, i], rho[..., i, j]), np.where(top, drho[..., j, i], drho[..., i, j])
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


def conjugate_trajectory(traj: Trajectory, unitary: np.ndarray) -> FactorTrajectory:
    """The trajectory t -> U rho_t U^dagger, as the factor U A_t of
    ``model_factor``."""
    u = np.asarray(unitary, dtype=complex)
    factor_at = model_factor(traj)

    def rotated(t):
        factor, move = factor_at(t)
        return u @ factor, u @ move

    return FactorTrajectory(rotated, traj.dim)


def open_model(key: str, p: OpenSystemParams, **kwargs) -> Trajectory:
    """``trajectory_from_key`` for the open model ``key`` at the alpha and
    width of ``p``; ``kwargs`` are passed on."""
    return trajectory_from_key(
        key, alpha=p.alpha, Gamma_over_gamma0=p.Gamma, markovian_limit=p.markovian_limit, **kwargs
    )


def stacked(func):
    """A factor function (``FactorTrajectory``) from ``func``, which takes
    one time and returns (A, A'): both at every time of an array, stacked
    along its axes."""

    def at(times):
        times = np.asarray(times, dtype=float)
        pairs = [[np.asarray(x, dtype=complex) for x in func(float(t))] for t in times.ravel()]
        return tuple(np.stack(xs).reshape(times.shape + xs[0].shape) for xs in zip(*pairs))

    return at


def without_analytic_derivative(traj: Trajectory, step: float = DEFAULT_TIME_STEP) -> FactorTrajectory:
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

    return FactorTrajectory(differenced, traj.dim)


def dense_kernel_speeds(rho, drho, metric: MetricKind = MetricKind.SLD) -> np.ndarray:
    """Oracle on dense states: the speeds of the kernel sum over one dense
    ``np.linalg.eigh`` of every state, whatever its sparsity, with the
    derivative elements |V^dagger drho V| in that eigenbasis. Eigenvalues
    below ``INERT_EIGENVALUE_TOL`` are 0, and pairs of them are dropped: rho
    and its derivative cannot carry the terms of an eigenvalue that touches
    zero, which ``factor_speeds`` adds."""
    values, vectors = np.linalg.eigh(np.asarray(rho, dtype=complex))
    p = np.where(values < INERT_EIGENVALUE_TOL, 0.0, values)
    magnitude = np.abs(vectors.conj().swapaxes(-2, -1) @ np.asarray(drho, dtype=complex) @ vectors)
    pk, pl = p[..., :, None], p[..., None, :]
    kernel = mc_kernel(metric, pk, pl, where=pk + pl > 0.0)
    return 0.5 * np.sqrt((kernel * magnitude * magnitude).sum(axis=(-2, -1)))


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


def _damping_elements(g: float, c: float) -> list[np.ndarray]:
    """Single-qubit operation elements at coherence amplitude g (P = g^2)
    and decay amplitude c (c^2 = 1 - P)."""
    keep = np.array([[g, 0.0], [0.0, 1.0]], dtype=complex)
    decay = np.array([[0.0, 0.0], [c, 0.0]], dtype=complex)
    return [keep, decay]


def local_damping_evolve(rho0: np.ndarray, P: float, n: int = 1, complement: float | None = None) -> np.ndarray:
    """Oracle for the open-model states: amplitude damping at population
    factor P applied locally to each of n qubits (n in {1, 2}), as a Kraus
    sum. ``complement`` is 1 - P, by default the float 1 - P; given the
    models' stable one (``population_complement``), the pair builders
    equal it bit for bit."""
    if n not in (1, 2):
        raise ValueError(f"local damping supports 1 or 2 qubits, got n = {n}")
    if not 0.0 <= P <= 1.0:
        raise ValueError(f"population factor must lie in [0, 1], got {P}")
    rho = np.asarray(rho0, dtype=complex)
    expected = 2**n
    if rho.shape != (expected, expected):
        raise ValueError(f"expected a {expected}x{expected} state for n = {n}")
    single = _damping_elements(math.sqrt(P), math.sqrt(max(1.0 - P, 0.0) if complement is None else complement))
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


# ---------------------------------------------------------------------------
# Extended-precision reference (ROADMAP items 2 and 3): the standard library's
# decimal module, no numpy and no package code. Every value is exact to about
# REFERENCE_DIGITS significant digits. It works with WORKING_DIGITS, so that
# the digits 1 - G_t loses to G_t near 1 (down to 1 - G_t ~ 1e-37 at Gamma t
# and t of 1e-12) and those the halvings of its trigonometric functions lose
# still leave REFERENCE_DIGITS.

REFERENCE_DIGITS = 40
WORKING_DIGITS = REFERENCE_DIGITS + 80
D = decimal.Decimal


def _reference_context():
    return decimal.localcontext(decimal.Context(prec=WORKING_DIGITS, Emin=-10**9, Emax=10**9))


def _sin_cos(x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(sin x, cos x): halve x until it is below 1/16, sum the Taylor series
    (the ``decimal`` documentation's recipes) and double the angle back,
    sin 2y = 2 sin y cos y and cos 2y = 1 - 2 sin^2 y."""
    halvings = 0
    while abs(x) >= D(1) / 16:
        x, halvings = x / 2, halvings + 1
    square, tiny = x * x, D(10) ** -(WORKING_DIGITS + 5)
    sine = sine_term = x
    cosine = cosine_term = D(1)
    n = 1
    while abs(cosine_term) >= tiny:  # the terms of both series shrink by about x^2 / n^2 each
        sine_term = -sine_term * square / ((n + 1) * (n + 2))
        cosine_term = -cosine_term * square / (n * (n + 1))
        sine, cosine, n = sine + sine_term, cosine + cosine_term, n + 2
    for _ in range(halvings):
        sine, cosine = 2 * sine * cosine, 1 - 2 * sine * sine
    return sine, cosine


def reference_amplitudes(Gamma: float, t: float) -> tuple[decimal.Decimal, decimal.Decimal, decimal.Decimal]:
    """(G_t, G'_t, 1 - G_t) at width ``Gamma`` (inf: the Markovian limit)
    and time ``t``, as Decimals at ``WORKING_DIGITS``, from the closed form
    of each branch of the model docstring: the trigonometric functions of
    ``_sin_cos`` where Gamma < 2, and where Gamma > 2 its cosh and sinh
    written with ``decimal``'s exp, as the decaying exponentials
    exp(-(x -+ y)), x = Gamma t / 2 and y = kappa t / 2, which stay in
    range where cosh would overflow at late times."""
    with _reference_context():
        t = D(t)
        if math.isinf(Gamma):
            g = (-t / 2).exp()
            return +g, -g / 2, 1 - g
        width = D(Gamma)
        x = width * t / 2
        decay = (-x).exp()
        if width == 2:
            g, dg = decay * (1 + x), -x * decay
        elif width < 2:
            kappa = (width * (2 - width)).sqrt()
            sine, cosine = _sin_cos(kappa * t / 2)
            g, dg = decay * (cosine + width / kappa * sine), -width / kappa * decay * sine
        else:
            kappa = (width * (width - 2)).sqrt()
            up, down = (-(x - kappa * t / 2)).exp(), (-(x + kappa * t / 2)).exp()
            g = ((1 + width / kappa) * up + (1 - width / kappa) * down) / 2
            dg = -width / (2 * kappa) * (up - down)
        return +g, +dg, 1 - g


def _reference_pair(m: list, dm: list, metric: MetricKind) -> decimal.Decimal:
    """F of a real symmetric 2x2 block [[m0, m2], [m2, m1]] moving at
    ``dm`` in the same layout: the kernel sum over its eigenvalues (the
    quadratic formula, the smaller one as det / the larger) and unit
    eigenvectors."""
    a, c, w = m
    da, dc, dw = dm
    half = (a + c) / 2
    spread = (((a - c) / 2) ** 2 + w * w).sqrt()
    large = half + spread
    small = (a * c - w * w) / large
    if spread == 0:  # a multiple of the identity: any basis diagonalizes it
        u = (D(1), D(0))
    else:
        u = (w, large - a) if abs(large - a) >= abs(large - c) else (large - c, w)
        norm = (u[0] * u[0] + u[1] * u[1]).sqrt()
        u = (u[0] / norm, u[1] / norm)
    v = (-u[1], u[0])

    def element(p, q):
        return p[0] * (da * q[0] + dw * q[1]) + p[1] * (dw * q[0] + dc * q[1])

    def kernel(x, y):
        if metric is MetricKind.SLD:
            return 2 / (x + y)
        return 4 / (x.sqrt() + y.sqrt()) ** 2

    total = element(u, u) ** 2 * kernel(large, large) + 2 * element(u, v) ** 2 * kernel(large, small)
    return total + element(v, v) ** 2 * kernel(small, small)


def reference_speed(key: str, alpha: float, Gamma: float | None, t: float, metric: MetricKind,
                    omega: float = 1.0, by_blocks: bool = False) -> float:
    """``exact_speed``, rounded to a float."""
    return float(exact_speed(key, alpha, Gamma, t, metric, omega, by_blocks))


def exact_speed(key: str, alpha, Gamma, t, metric: MetricKind, omega=1.0, by_blocks: bool = False) -> decimal.Decimal:
    """The speed of model ``key`` at ``alpha``, width ``Gamma`` (inf:
    Markovian; None for a closed model, which precesses at ``omega``) and
    ``t`` > 0, under ``metric``, as a Decimal at ``WORKING_DIGITS``; the
    parameters are floats or Decimals. A closed model moves
    at omega alpha beta, 2 omega alpha beta or 0 (SLD), sqrt(2) times that
    under WY. An open model's SLD speed is its closed form: alpha |G'|
    sqrt((1 - beta^2 P) / (1 - P)) for one qubit, 2 alpha |G'| sqrt((1 - 2 P
    (1 - P)) / (2 (1 - P) (1 - 2 alpha^2 P (1 - P)))) for the aligned pair
    and |G'| / c, c = sqrt(1 - P), for the anti pair. Under WY it is the
    kernel sum over the eigenvalues of each 2x2 block of the state, plus
    4 s'^2 for each ray p = s^2 on a fixed vector; ``by_blocks`` takes
    that route under SLD too, which checks the closed forms."""
    with _reference_context():
        a = D(alpha)
        b = (1 - a * a).sqrt()
        kind = key.split("-")[-1]
        if Gamma is None:
            rate = {"1q": 1, "aligned": 2, "anti": 0}[kind] * D(omega) * a * b
            return +rate if metric is MetricKind.SLD else rate * D(2).sqrt()
        g, dg, lost = reference_amplitudes(Gamma, t)
        pop, dpop, comp = g * g, 2 * g * dg, lost * (1 + g)
        c = comp.sqrt()
        dc = -g * dg / c
        if metric is MetricKind.SLD and not by_blocks:
            if kind == "1q":
                return a * abs(dg) * ((1 - b * b * pop) / comp).sqrt()
            if kind == "aligned":
                inner = 2 * pop * comp
                return 2 * a * abs(dg) * ((1 - inner) / (2 * comp * (1 - a * a * inner))).sqrt()
            return abs(dg) / c
        if kind == "1q":
            fisher = _reference_pair([a * a * pop, 1 - a * a * pop, a * b * g], [a * a * dpop, -a * a * dpop, a * b * dg],
                                     metric)
        elif kind == "aligned":
            corner = [a * a * pop * pop, b * b + a * a * comp * comp, a * b * pop]
            moves = [2 * a * a * pop * dpop, -2 * a * a * comp * dpop, a * b * dpop]
            fisher = _reference_pair(corner, moves, metric) + 2 * 4 * (a * (dg * c + g * dc)) ** 2
        else:
            fisher = 4 * dg * dg + 4 * dc * dc
        return fisher.sqrt() / 2



def exact_alpha(C) -> decimal.Decimal:
    """``alpha_from_concurrence`` as a Decimal: sqrt((1 - sqrt(1 - C^2)) / 2)."""
    with _reference_context():
        C = D(C)
        return ((1 - (1 - C * C).sqrt()) / 2).sqrt()


def reference_slope(speed_of, xi: float, domain: tuple[float, float] = (-math.inf, math.inf)) -> float:
    """dS/dxi at the float ``xi`` of ``speed_of``, a function of a Decimal
    that returns one (``exact_speed``): the central difference over +-1e-20
    at ``WORKING_DIGITS``, about xi, or about 2e-20 inside it where xi is
    within 1e-20 of an end of ``domain``, where S may be a 0/0 limit. Its
    error is about 1e-40 S^(3) / S', and the shift moves it by about
    2e-20 S'' / S', far below what a float slope resolves."""
    with _reference_context():
        step, x = D("1e-20"), D(xi)
        if x - step <= D(domain[0]):
            x += 2 * step
        elif x + step >= D(domain[1]):
            x -= 2 * step
        return float((speed_of(x + step) - speed_of(x - step)) / (2 * step))