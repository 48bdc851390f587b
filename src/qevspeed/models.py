"""Built-in model dynamics: spin precession and amplitude-damped qubits.

Basis convention: the single-qubit basis is ordered (|1>, |0>) with the
excited state first, so density matrices read

    [[rho_11, rho_10],
     [rho_01, rho_00]]

and the two-qubit product basis is (|11>, |10>, |01>, |00>).

Closed models: one or two non-interacting spins precessing under
H = (omega/2) sigma_z per spin. Open models: each qubit couples to its own
leaky vacuum cavity with a Lorentzian coupling spectrum of width Gamma and
Markovian-limit rate gamma0. The exact reduced dynamics scales the excited
population by P_t = G_t^2 and the coherence by G_t, where

    G_t = exp(-Gamma t / 2) [cos(kappa t / 2) + (Gamma/kappa) sin(kappa t / 2)]

with kappa = sqrt(2 gamma0 Gamma - Gamma^2) for Gamma < 2 gamma0 (the
oscillatory, memory-carrying regime), the analytic continuation with
hyperbolic functions for Gamma > 2 gamma0, the degenerate form
exp(-Gamma t / 2)(1 + Gamma t / 2) at kappa = 0, and exp(-gamma0 t / 2) in
the Markovian limit Gamma -> infinity. Times and rates are dimensionless in
units of gamma0 (closed models: units of omega) once gamma0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linalg import PAULI_Y, assert_density, tensor
from .speed import Trajectory, vectorized

# Width of the window around Gamma = 2 gamma0 treated as the degenerate
# (kappa = 0) branch, measured on kappa in units of gamma0.
CRITICAL_KAPPA_TOL = 1e-12

_NORM_TOL = 1e-12

MODEL_KEYS = (
    "closed-1q",
    "closed-2q-aligned",
    "closed-2q-anti",
    "open-1q",
    "open-2q-aligned",
    "open-2q-anti",
)


@dataclass(frozen=True)
class ClosedQubitParams:
    """Level splitting and initial amplitudes alpha|1> + beta|0> per spin."""

    omega: float
    alpha: complex
    beta: complex

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm:.12g}")

    @staticmethod
    def from_alpha(alpha: float, omega: float = 1.0) -> "ClosedQubitParams":
        """Real-amplitude parameterization with beta = sqrt(1 - alpha^2)."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        return ClosedQubitParams(omega, alpha, math.sqrt(1.0 - alpha * alpha))


@dataclass(frozen=True)
class OpenSystemParams:
    """Damped-qubit bath parameters.

    Exactly one of ``Gamma`` (finite spectral width) or ``markovian_limit``
    must be set. ``alpha`` is the real initial excited amplitude.
    """

    alpha: float = 1.0
    gamma0: float = 1.0
    Gamma: float | None = None
    markovian_limit: bool = False

    def __post_init__(self):
        if not self.gamma0 > 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.markovian_limit == (self.Gamma is not None):
            raise ValueError("set exactly one of Gamma or markovian_limit")
        if self.Gamma is not None and not self.Gamma > 0.0:
            raise ValueError(f"Gamma must be positive, got {self.Gamma}")

    @property
    def Omega(self) -> float:
        """Inverse width ratio gamma0 / Gamma (0 in the Markovian limit)."""
        return 0.0 if self.markovian_limit else self.gamma0 / self.Gamma

    @property
    def kappa(self) -> float:
        """|2 gamma0 Gamma - Gamma^2|^(1/2); real oscillation rate when
        Gamma < 2 gamma0."""
        if self.markovian_limit:
            raise ValueError("kappa is undefined in the Markovian limit")
        return math.sqrt(abs(2.0 * self.gamma0 * self.Gamma - self.Gamma**2))

    def branch(self) -> str:
        """One of 'markovian', 'oscillatory', 'critical', 'hyperbolic'."""
        if self.markovian_limit:
            return "markovian"
        if self.kappa <= CRITICAL_KAPPA_TOL * self.gamma0:
            return "critical"
        return "oscillatory" if self.Gamma < 2.0 * self.gamma0 else "hyperbolic"


def _check_time(t) -> None:
    t = np.asarray(t)
    if (t < 0.0).any():
        raise ValueError(f"time must be nonnegative, got {t[t < 0.0].flat[0]}")


def _scalar_or_array(value: np.ndarray):
    """A 0-d result as a Python float, anything larger as the array."""
    return float(value) if value.ndim == 0 else value


def _libm(func):
    """Apply a ``math`` function elementwise to a float array.

    numpy's SIMD exp, cosh and sinh differ from libm in the last bit for a
    few percent of arguments. Near t = 0 one bit of G_t is a relative error
    of 1e-7 in 1 - P_t, so the amplitudes keep libm's values: the batched
    builders then agree with the scalar closed forms bit for bit.
    """

    def apply(x):
        if isinstance(x, float):
            return func(x)
        return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return apply


_exp, _cos, _sin, _cosh, _sinh = map(_libm, (math.exp, math.cos, math.sin, math.cosh, math.sinh))


def _markovian(t, g, k, gamma0):
    decay = _exp(-0.5 * gamma0 * t)
    return decay, -0.5 * gamma0 * decay


def _critical(t, g, k, gamma0):
    decay = _exp(-0.5 * g * t)
    return decay * (1.0 + 0.5 * g * t), -0.25 * g * g * t * decay


def _oscillatory(t, g, k, gamma0):
    half = 0.5 * k * t
    decay, sine = _exp(-0.5 * g * t), _sin(half)
    return decay * (_cos(half) + (g / k) * sine), -(gamma0 * g / k) * decay * sine


def _hyperbolic(t, g, k, gamma0):
    # For small arguments keep cosh/sinh (the split form below cancels badly
    # when Gamma/kappa is huge near the critical point).
    half = 0.5 * k * t
    decay, sinh = _exp(-0.5 * g * t), _sinh(half)
    return decay * (_cosh(half) + (g / k) * sinh), -(gamma0 * g / k) * decay * sinh


def _hyperbolic_split(t, g, k, gamma0):
    # For large arguments expand into decaying exponentials (kappa < Gamma)
    # to avoid cosh overflow.
    up = _exp(0.5 * (k - g) * t)
    down = _exp(-0.5 * (k + g) * t)
    return (
        0.5 * ((1.0 + g / k) * up + (1.0 - g / k) * down),
        -(gamma0 * g / (2.0 * k)) * (up - down),
    )


_BRANCHES = (_markovian, _critical, _oscillatory, _hyperbolic, _hyperbolic_split)


def _amplitudes(t, Gamma, gamma0: float):
    """G_t and dG_t/dt elementwise over broadcast times and widths.

    ``Gamma = inf`` is the Markovian limit. Each element takes the branch
    that ``OpenSystemParams.branch`` names for its width, and the
    hyperbolic branch splits at kappa t / 2 = 20. Scalars give floats.
    """
    if np.ndim(t) == 0 and np.ndim(Gamma) == 0:
        # One point (every speed_at call): the same choice of branch in
        # Python floats, several times faster than numpy on 0-d arrays.
        t, g = float(t), float(Gamma)
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if math.isinf(g):
            return _markovian(t, g, 0.0, gamma0)
        k = math.sqrt(abs(2.0 * gamma0 * g - g**2))
        if k <= CRITICAL_KAPPA_TOL * gamma0:
            return _critical(t, g, k, gamma0)
        if g < 2.0 * gamma0:
            return _oscillatory(t, g, k, gamma0)
        return (_hyperbolic if 0.5 * k * t < 20.0 else _hyperbolic_split)(t, g, k, gamma0)
    _check_time(t)
    t, g = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(Gamma, dtype=float))
    markovian = np.isinf(g)
    finite = np.where(markovian, 0.0, g)
    k = np.sqrt(np.abs(2.0 * gamma0 * finite - finite**2))
    code = np.where(
        k <= CRITICAL_KAPPA_TOL * gamma0,
        1,
        np.where(finite < 2.0 * gamma0, 2, np.where(0.5 * k * t < 20.0, 3, 4)),
    )
    code[markovian] = 0
    value, slope = np.empty(t.shape), np.empty(t.shape)
    with np.errstate(under="ignore"):  # decaying terms may flush to zero
        for branch, formula in enumerate(_BRANCHES):
            mask = code == branch
            if mask.any():
                value[mask], slope[mask] = formula(t[mask], g[mask], k[mask], gamma0)
    return value, slope


def _width(p: OpenSystemParams) -> float:
    return math.inf if p.markovian_limit else p.Gamma


def amplitude_factor(p: OpenSystemParams, t):
    """Signed coherence amplitude G_t; the excited population is G_t^2.

    G_t passes through zero in the oscillatory regime, flipping the sign of
    the coherences; the population factor is insensitive to the sign. ``t``
    may be an array.
    """
    return _scalar_or_array(np.asarray(_amplitudes(t, _width(p), p.gamma0)[0]))


def amplitude_factor_dot(p: OpenSystemParams, t):
    """Closed-form time derivative of the coherence amplitude G_t."""
    return _scalar_or_array(np.asarray(_amplitudes(t, _width(p), p.gamma0)[1]))


def population_factor(p: OpenSystemParams, t):
    """Excited-state survival factor P_t = G_t^2, in [0, 1]."""
    g = amplitude_factor(p, t)
    return min(g * g, 1.0) if isinstance(g, float) else np.minimum(g * g, 1.0)


def population_factor_dot(p: OpenSystemParams, t):
    """Closed-form dP/dt = 2 G_t dG/dt."""
    g, dg = _amplitudes(t, _width(p), p.gamma0)
    return _scalar_or_array(np.asarray(2.0 * g * dg))


def population_complement(p: OpenSystemParams, t: float) -> float:
    """1 - P_t without cancellation near P_t = 1.

    Computed from expm1/log1p of the amplitude factor when P_t >= 1/2; the
    direct subtraction is already accurate below that.
    """
    _check_time(t)
    branch = p.branch()
    if branch == "markovian":
        return -math.expm1(-p.gamma0 * t)
    value = population_factor(p, t)
    if value < 0.5:
        return 1.0 - value
    g, k = p.Gamma, p.kappa
    # P >= 1/2 only happens while the bracket u = G exp(Gamma t / 2) stays
    # close to 1, where u - 1 is computed stably term by term.
    if branch == "critical":
        um1 = 0.5 * g * t
    elif branch == "oscillatory":
        quarter = 0.25 * k * t
        um1 = -2.0 * math.sin(quarter) ** 2 + (g / k) * math.sin(0.5 * k * t)
    else:
        quarter = 0.25 * k * t
        um1 = 2.0 * math.sinh(quarter) ** 2 + (g / k) * math.sinh(0.5 * k * t)
    log_p = -g * t + 2.0 * math.log1p(um1)
    return -math.expm1(log_p)


# ---------------------------------------------------------------------------
# Trajectories
#
# Each model has one array-valued builder: its state and derivative callables
# take a time or an array of times, broadcast it against the model's
# parameters (which may be arrays too) and return the matrices stacked along
# the leading axes, so a whole grid is built in one call.


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :].conj()


def _closed_trajectory(kind: str, a, b, w: float, horizon: float) -> Trajectory:
    """Pure precessing states of one qubit (``kind='1q'``) or of the
    aligned/anti-aligned pair, for amplitudes ``a``, ``b`` that broadcast."""
    dim = 2 if kind == "1q" else 4
    last = dim - 1
    spin = 0.5j if kind == "1q" else 1j  # phase rate per unit omega

    def vectors(t) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        shape = t.shape if np.ndim(a) == 0 else np.broadcast_shapes(t.shape, np.shape(a))
        v = np.zeros(shape + (dim,), dtype=complex)
        dv = np.zeros_like(v)
        if kind == "anti":
            v[..., 1], v[..., 2] = a, b
            return v, dv
        phase = np.exp(-spin * w * t)
        v[..., 0], v[..., last] = a * phase, b / phase
        dv[..., 0], dv[..., last] = -spin * w * a * phase, spin * w * b / phase
        return v, dv

    @vectorized
    def state(t) -> np.ndarray:
        v, _ = vectors(t)
        return _outer(v, v)

    @vectorized
    def derivative(t) -> np.ndarray:
        v, dv = vectors(t)
        return _outer(dv, v) + _outer(v, dv)

    return Trajectory(
        dim=dim,
        horizon=horizon,
        state_at=state,
        derivative_at=derivative,
        params={"omega": w, "alpha_abs": np.abs(a), "beta_abs": np.abs(b)},
    )


def precession_trajectory(p: ClosedQubitParams, horizon: float = 50.0) -> Trajectory:
    """Pure-state precession alpha e^{-i omega t/2}|1> + beta e^{i omega t/2}|0>."""
    return _closed_trajectory("1q", complex(p.alpha), complex(p.beta), p.omega, horizon)


def two_qubit_closed_trajectory(
    p: ClosedQubitParams, kind: str, horizon: float = 50.0
) -> Trajectory:
    """Two non-interacting precessing spins.

    ``kind='aligned'`` starts from alpha|11> + beta|00>, which accumulates the
    phases of both spins; ``kind='anti'`` starts from alpha|10> + beta|01>,
    whose components are degenerate in energy, so the state never moves.
    """
    if kind not in ("aligned", "anti"):
        raise ValueError(f"kind must be 'aligned' or 'anti', got '{kind}'")
    return _closed_trajectory(kind, complex(p.alpha), complex(p.beta), p.omega, horizon)


def _open_trajectory(kind: str, a, gamma0: float, Gamma, horizon: float | None) -> Trajectory:
    """Locally damped qubit (``kind='1q'``) or pair from real amplitude ``a``;
    ``a`` and ``Gamma`` broadcast, ``Gamma = inf`` is the Markovian limit.

    The entries are closed forms in the signed amplitude G_t (one qubit) or
    in P_t = min(G_t^2, 1) (pairs). The pair entries are the local
    operation elements {[[sqrt P, 0], [0, 1]], [[0, 0], [sqrt(1 - P), 0]]}
    of each qubit multiplied out, in the order of floating-point operations
    of the Kraus sum with ``np.kron``, so both give the same bits.
    """
    if horizon is None:
        horizon = 50.0 / gamma0
    b = np.sqrt(1.0 - a * a)
    dim = 2 if kind == "1q" else 4

    def shape_of(g) -> tuple[int, ...]:
        return np.shape(g) if np.ndim(a) == 0 else np.broadcast_shapes(np.shape(g), np.shape(a))

    @vectorized
    def state(t) -> np.ndarray:
        g, _ = _amplitudes(t, Gamma, gamma0)
        out = np.zeros(shape_of(g) + (dim, dim), dtype=complex)
        if kind == "1q":
            pop = g * g
            out[..., 0, 0] = a * a * pop
            out[..., 0, 1] = out[..., 1, 0] = a * b * g
            out[..., 1, 1] = 1.0 - a * a * pop
            return out
        root = np.sqrt(np.minimum(g * g, 1.0))
        decay = np.sqrt(np.maximum(1.0 - root * root, 0.0))
        if kind == "aligned":
            kept, moved, lost = root * root, root * decay, decay * decay
            out[..., 0, 0] = kept * (a * a) * kept
            out[..., 1, 1] = out[..., 2, 2] = moved * (a * a) * moved
            out[..., 3, 3] = b * b + lost * (a * a) * lost
            out[..., 0, 3] = out[..., 3, 0] = kept * (a * b)
        else:
            out[..., 1, 1] = root * (a * a) * root
            out[..., 1, 2] = out[..., 2, 1] = root * (a * b) * root
            out[..., 2, 2] = root * (b * b) * root
            out[..., 3, 3] = decay * (b * b) * decay + decay * (a * a) * decay
        return out

    @vectorized
    def derivative(t) -> np.ndarray:
        g, dg = _amplitudes(t, Gamma, gamma0)
        out = np.zeros(shape_of(g) + (dim, dim), dtype=complex)
        dpop = 2.0 * g * dg
        if kind == "1q":
            out[..., 0, 0] = a * a * dpop
            out[..., 0, 1] = out[..., 1, 0] = a * b * dg
            out[..., 1, 1] = -a * a * dpop
        elif kind == "aligned":
            pop = np.minimum(g * g, 1.0)
            out[..., 0, 0] = 2.0 * a * a * pop * dpop
            out[..., 1, 1] = out[..., 2, 2] = a * a * dpop * (1.0 - 2.0 * pop)
            out[..., 3, 3] = -2.0 * a * a * dpop * (1.0 - pop)
            out[..., 0, 3] = out[..., 3, 0] = a * b * dpop
        else:
            out[..., 1, 1] = dpop * (a * a)
            out[..., 1, 2] = out[..., 2, 1] = dpop * (a * b)
            out[..., 2, 2] = dpop * (b * b)
            out[..., 3, 3] = -dpop
        return out

    record = {"alpha": a, "gamma0": gamma0}
    if np.isinf(Gamma).all():
        record["markovian_limit"] = 1.0
        limit = None
    else:
        record["Gamma_over_gamma0"] = Gamma / gamma0
        if kind == "1q":
            limit = a * a * np.sqrt(0.5 * Gamma * gamma0)
        elif kind == "aligned":
            limit = a * np.sqrt(Gamma * gamma0)
        else:
            limit = np.sqrt(0.5 * Gamma * gamma0)
        limit = _scalar_or_array(np.broadcast_to(limit, np.broadcast_shapes(np.shape(a), np.shape(Gamma))))
    return Trajectory(
        dim=dim,
        horizon=horizon,
        state_at=state,
        derivative_at=derivative,
        params=record,
        speed_at_zero=limit,
        boundary_at_zero=True,
    )


def open_qubit_trajectory(
    p: OpenSystemParams, horizon: float | None = None
) -> Trajectory:
    """Amplitude-damped qubit starting from alpha|1> + sqrt(1-alpha^2)|0>.

    The state keeps the signed coherence amplitude G_t (the exact reduced
    dynamics), so the trajectory is smooth through the zeros of P_t; the
    amplitude-damping channel at P_t, whose coherence factor is sqrt(P_t),
    agrees with it wherever G_t >= 0. The speed limit at t = 0, where the evaluation is 0/0, is
    alpha^2 sqrt(Gamma gamma0 / 2); in the Markovian limit it diverges.
    """
    return _open_trajectory("1q", p.alpha, p.gamma0, _width(p), horizon)


def open_two_qubit_trajectory(
    p: OpenSystemParams, kind: str, horizon: float | None = None
) -> Trajectory:
    """Two qubits, each locally amplitude-damped by its own cavity.

    ``kind='aligned'`` starts from alpha|11> + beta|00>; ``kind='anti'`` from
    alpha|10> + beta|01>, whose evolved state P_t|phi0><phi0| +
    (1-P_t)|00><00| has constant eigenvectors and an alpha-independent speed.
    The states equal the local amplitude-damping channel applied to each
    qubit of the initial state.
    """
    if kind not in ("aligned", "anti"):
        raise ValueError(f"kind must be 'aligned' or 'anti', got '{kind}'")
    return _open_trajectory(kind, p.alpha, p.gamma0, _width(p), horizon)


# ---------------------------------------------------------------------------
# Analytic speeds


def open_qubit_speed_analytic(p: OpenSystemParams, t: float) -> float:
    """Closed-form speed of the damped qubit under the SLD metric.

    Evaluated as alpha |dG/dt| sqrt((1 - (1-alpha^2) P) / (1 - P)), which is
    the standard |dP/dt| form with the removable sqrt(P) singularity
    cancelled, so the zeros of P_t need no special handling. At t = 0 the
    limit alpha^2 sqrt(Gamma gamma0 / 2) is returned (infinite in the
    Markovian limit).
    """
    _check_time(t)
    a = p.alpha
    if a == 0.0:
        return 0.0
    if t == 0.0:
        if p.markovian_limit:
            return math.inf
        return a * a * math.sqrt(0.5 * p.Gamma * p.gamma0)
    pop = population_factor(p, t)
    comp = population_complement(p, t)
    dg = amplitude_factor_dot(p, t)
    return a * abs(dg) * math.sqrt((1.0 - (1.0 - a * a) * pop) / comp)


def open_two_qubit_speed_analytic(p: OpenSystemParams, t: float) -> float:
    """Closed-form speed of the locally damped aligned pair (SLD metric).

    Same sqrt(P) cancellation as the single-qubit form; the t = 0 limit is
    alpha sqrt(Gamma gamma0).
    """
    _check_time(t)
    a = p.alpha
    if a == 0.0:
        return 0.0
    if t == 0.0:
        if p.markovian_limit:
            return math.inf
        return a * math.sqrt(p.Gamma * p.gamma0)
    pop = population_factor(p, t)
    comp = population_complement(p, t)
    dg = amplitude_factor_dot(p, t)
    numerator = 1.0 - 2.0 * pop * comp
    denominator = 2.0 * comp * (1.0 - 2.0 * a * a * pop * comp)
    return 2.0 * a * abs(dg) * math.sqrt(numerator / denominator)


def _concurrence_factor(C) -> np.ndarray:
    """x = 1 - sqrt(1 - C^2), written without cancellation; C may be an array."""
    C = np.asarray(C, dtype=float)
    outside = ~((C >= 0.0) & (C <= 1.0))
    if outside.any():
        raise ValueError(f"concurrence must lie in [0, 1], got {C[outside].flat[0]}")
    return C * C / (1.0 + np.sqrt(1.0 - C * C))


def markovian_two_qubit_speed(C, t: float):
    """Speed (in units of gamma0) of the aligned pair in the Markovian limit,
    parameterized by the initial concurrence C = 2 alpha sqrt(1 - alpha^2).

    S = (1/2) sqrt( x P (1 - 2P + 2P^2) / ((1-P) [1 - x P (1-P)]) ) with
    x = 1 - sqrt(1 - C^2) and P = exp(-t). Diverges at t = 0. ``C`` may be
    an array.
    """
    x = _concurrence_factor(C)
    _check_time(t)
    if t == 0.0:
        if not (x == 0.0).all():
            raise DivergenceError(
                "the Markovian-limit speed is unbounded at t = 0 "
                "(the spectral width has been taken to infinity)"
            )
        return _scalar_or_array(np.zeros_like(x))
    pop = math.exp(-t)
    comp = -math.expm1(-t)
    numerator = x * pop * (1.0 - 2.0 * pop * comp)
    denominator = comp * (1.0 - x * pop * comp)
    return _scalar_or_array(0.5 * np.sqrt(numerator / denominator))


def alpha_from_concurrence(C):
    """Excited amplitude (<= 1/sqrt(2) branch) of an aligned pair with
    initial concurrence C = 2 alpha sqrt(1 - alpha^2); C may be an array."""
    return _scalar_or_array(np.sqrt(0.5 * _concurrence_factor(C)))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density operator.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) conj(rho) (sy x sy). Those roots equal the
    singular values of sqrt(rho_tilde) sqrt(rho), which is how they are
    computed here (no precision loss from squaring).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a two-qubit (4x4) state, got {rho.shape}")
    assert_density(rho)
    values, vectors = np.linalg.eigh(rho)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    flip = tensor(PAULI_Y, PAULI_Y)
    root_tilde = flip @ root.conj() @ flip
    lam = np.linalg.svd(root_tilde @ root, compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


# ---------------------------------------------------------------------------
# Registry


def _extremes(value) -> tuple[float, ...]:
    """The smallest and largest element of a parameter. Every parameter check
    is a bound, so an array passes exactly when its extremes do."""
    values = np.asarray(value, dtype=float)
    return (float(values),) if values.ndim == 0 else (float(values.min()), float(values.max()))


def trajectory_from_key(
    key: str,
    *,
    alpha=1.0,
    omega: float = 1.0,
    gamma0: float = 1.0,
    Gamma_over_gamma0=None,
    markovian_limit: bool = False,
    horizon: float | None = None,
) -> Trajectory:
    """Build a model trajectory from its string key and real parameters.

    Open models need either ``Gamma_over_gamma0`` or ``markovian_limit``.
    ``alpha`` and ``Gamma_over_gamma0`` may be arrays: the result is then a
    family of trajectories whose states broadcast time against them, for a
    parameter sweep evaluated in one batch.
    """
    if key not in MODEL_KEYS:
        raise ValueError(
            f"unknown model '{key}'; valid keys: {', '.join(MODEL_KEYS)}"
        )
    if np.ndim(alpha):
        alpha = np.asarray(alpha, dtype=float)
    if key.startswith("closed"):
        for a in _extremes(alpha):
            params = ClosedQubitParams.from_alpha(a, omega)
        h = 50.0 / omega if horizon is None else horizon
        kind = "1q" if key == "closed-1q" else key.removeprefix("closed-2q-")
        if np.ndim(alpha) == 0:
            return _closed_trajectory(kind, complex(params.alpha), complex(params.beta), omega, h)
        return _closed_trajectory(kind, alpha, np.sqrt(1.0 - alpha * alpha), omega, h)
    if Gamma_over_gamma0 is None and not markovian_limit:
        raise ValueError(
            f"model '{key}' needs Gamma_over_gamma0 or markovian_limit"
        )
    widths = (None,) if markovian_limit else _extremes(Gamma_over_gamma0)
    for a in _extremes(alpha):
        for ratio in widths:
            OpenSystemParams(
                alpha=a,
                gamma0=gamma0,
                Gamma=None if ratio is None else ratio * gamma0,
                markovian_limit=markovian_limit,
            )
    if markovian_limit:
        Gamma = math.inf
    elif np.ndim(Gamma_over_gamma0):
        Gamma = np.asarray(Gamma_over_gamma0, dtype=float) * gamma0
    else:
        Gamma = Gamma_over_gamma0 * gamma0
    kind = "1q" if key == "open-1q" else key.removeprefix("open-2q-")
    return _open_trajectory(kind, alpha, gamma0, Gamma, horizon)
