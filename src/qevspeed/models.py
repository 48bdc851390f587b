"""Built-in model dynamics: spin precession and amplitude-damped qubits.

Basis convention: the single-qubit basis is ordered (|1>, |0>) with the
excited state first, so density matrices read

    [[rho_11, rho_10],
     [rho_01, rho_00]]

and the two-qubit product basis is (|11>, |10>, |01>, |00>).

Closed models: one or two non-interacting spins precessing under
H = (omega/2) sigma_z per spin; times are in units of 1/omega. Open models:
each qubit couples to its own leaky vacuum cavity with a Lorentzian coupling
spectrum of width Gamma and Markovian-limit rate gamma0. Their times and
rates are in units of gamma0: t stands for gamma0 t and Gamma for
Gamma / gamma0. The exact reduced dynamics scales the excited population by
P_t = G_t^2 and the coherence by G_t, where

    G_t = exp(-Gamma t / 2) [cos(kappa t / 2) + (Gamma/kappa) sin(kappa t / 2)]

with kappa = sqrt(2 Gamma - Gamma^2) for Gamma < 2 (the oscillatory,
memory-carrying regime), the analytic continuation with hyperbolic
functions for Gamma > 2, the degenerate form exp(-Gamma t / 2)(1 + Gamma t / 2)
at kappa = 0, and exp(-t / 2) in the Markovian limit Gamma -> infinity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .speed import Trajectory

MODEL_KEYS = (
    "closed-1q",
    "closed-2q-aligned",
    "closed-2q-anti",
    "open-1q",
    "open-2q-aligned",
    "open-2q-anti",
)


@dataclass(frozen=True)
class OpenSystemParams:
    """Damped-qubit bath parameters, in units of gamma0.

    Exactly one of ``Gamma`` (the finite spectral width Gamma / gamma0) or
    ``markovian_limit`` (the width taken to infinity) must be set.
    ``alpha`` is the real initial excited amplitude.
    """

    alpha: float = 1.0
    Gamma: float | None = None
    markovian_limit: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.markovian_limit == (self.Gamma is not None):
            raise ValueError("set exactly one of Gamma or markovian_limit")
        if self.Gamma is not None and not self.Gamma > 0.0:
            raise ValueError(f"Gamma must be positive, got {self.Gamma}")
        if self.Gamma == math.inf:
            raise ValueError("Gamma must be finite; for an infinite width, set markovian_limit")

    @property
    def kappa(self) -> float:
        """|2 Gamma - Gamma^2|^(1/2); real oscillation rate when Gamma < 2.

        Evaluated as sqrt(Gamma) sqrt(|2 - Gamma|), which neither overflows
        nor loses the 2 Gamma next to Gamma^2 at large widths."""
        if self.markovian_limit:
            raise ValueError("kappa is undefined in the Markovian limit")
        return math.sqrt(self.Gamma) * math.sqrt(abs(2.0 - self.Gamma))

    def branch(self) -> str:
        """One of 'markovian', 'oscillatory', 'critical', 'hyperbolic'."""
        if self.markovian_limit:
            return "markovian"
        if self.Gamma == 2.0:
            return "critical"
        return "oscillatory" if self.Gamma < 2.0 else "hyperbolic"


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
    blocks then agree with the scalar closed forms bit for bit.
    """

    def apply(x):
        if isinstance(x, float):
            return func(x)
        return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return apply


_exp, _cos, _sin, _cosh, _sinh = map(_libm, (math.exp, math.cos, math.sin, math.cosh, math.sinh))


def _markovian(t, g, k):
    decay = _exp(-0.5 * t)
    return decay, -0.5 * decay


def _critical(t, g, k):
    decay = _exp(-0.5 * g * t)
    return decay * (1.0 + 0.5 * g * t), -0.25 * g * g * t * decay


def _oscillatory(t, g, k):
    half = 0.5 * k * t
    decay, sine = _exp(-0.5 * g * t), _sin(half)
    return decay * (_cos(half) + (g / k) * sine), -(g / k) * decay * sine


def _hyperbolic(t, g, k):
    # For small arguments keep cosh/sinh (the split form below cancels badly
    # when Gamma/kappa is huge near the critical point).
    half = 0.5 * k * t
    decay, sinh = _exp(-0.5 * g * t), _sinh(half)
    return decay * (_cosh(half) + (g / k) * sinh), -(g / k) * decay * sinh


def _hyperbolic_split(t, g, k):
    # For large arguments expand into decaying exponentials (kappa < Gamma)
    # to avoid cosh overflow. kappa - Gamma = -2 Gamma / (kappa + Gamma)
    # without the cancellation of the difference at large widths.
    up = _exp(-g / (k + g) * t)
    down = _exp(-0.5 * (k + g) * t)
    return (
        0.5 * ((1.0 + g / k) * up + (1.0 - g / k) * down),
        -(g / (2.0 * k)) * (up - down),
    )


_BRANCHES = (_markovian, _critical, _oscillatory, _hyperbolic, _hyperbolic_split)


def _amplitudes(t, Gamma):
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
            return _markovian(t, g, 0.0)
        k = math.sqrt(g) * math.sqrt(abs(2.0 - g))
        if g == 2.0:
            return _critical(t, g, k)
        if g < 2.0:
            return _oscillatory(t, g, k)
        return (_hyperbolic if 0.5 * k * t < 20.0 else _hyperbolic_split)(t, g, k)
    _check_time(t)
    t, g = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(Gamma, dtype=float))
    markovian = np.isinf(g)
    finite = np.where(markovian, 0.0, g)
    k = np.sqrt(finite) * np.sqrt(np.abs(2.0 - finite))
    code = np.where(
        finite == 2.0, 1, np.where(finite < 2.0, 2, np.where(0.5 * k * t < 20.0, 3, 4))
    )
    code[markovian] = 0
    value, slope = np.empty(t.shape), np.empty(t.shape)
    with np.errstate(under="ignore"):  # decaying terms may flush to zero
        for branch, formula in enumerate(_BRANCHES):
            mask = code == branch
            if mask.any():
                value[mask], slope[mask] = formula(t[mask], g[mask], k[mask])
    return value, slope


def _width(p: OpenSystemParams) -> float:
    return math.inf if p.markovian_limit else p.Gamma


def amplitude_factor(p: OpenSystemParams, t):
    """Signed coherence amplitude G_t; the excited population is G_t^2.

    G_t passes through zero in the oscillatory regime, flipping the sign of
    the coherences; the population factor is insensitive to the sign. ``t``
    may be an array.
    """
    return _scalar_or_array(np.asarray(_amplitudes(t, _width(p))[0]))


def amplitude_factor_dot(p: OpenSystemParams, t):
    """Closed-form time derivative of the coherence amplitude G_t."""
    return _scalar_or_array(np.asarray(_amplitudes(t, _width(p))[1]))


def population_factor(p: OpenSystemParams, t):
    """Excited-state survival factor P_t = G_t^2, in [0, 1]."""
    g = amplitude_factor(p, t)
    return min(g * g, 1.0) if isinstance(g, float) else np.minimum(g * g, 1.0)


def population_factor_dot(p: OpenSystemParams, t):
    """Closed-form dP/dt = 2 G_t dG/dt."""
    g, dg = _amplitudes(t, _width(p))
    return _scalar_or_array(np.asarray(2.0 * g * dg))


def population_complement(p: OpenSystemParams, t: float) -> float:
    """1 - P_t without cancellation near P_t = 1.

    Computed from expm1/log1p of the amplitude factor when P_t >= 1/2; the
    direct subtraction is already accurate below that.
    """
    _check_time(t)
    branch = p.branch()
    if branch == "markovian":
        return -math.expm1(-t)
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
# Every model is an X state. Its block function takes a time or an array of
# times, broadcasts it against the model's parameters (which may be arrays
# too) and returns the diagonal blocks in the layout ``speed._block_terms``
# reads, so a whole grid is built in one call. ``state_at`` and
# ``derivative_at`` scatter the blocks into dense matrices.


def _cells(indices: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (row, column) of each entry a block holds, in its order."""
    return [(i, i) for i in indices] + ([indices] if len(indices) == 2 else [])


def _scatter(dim: int, blocks, part: int, t) -> np.ndarray:
    """The dense state (``part`` 1) or derivative (2) matrices of the blocks
    at times ``t``, stacked along their broadcast shape."""
    cells = [(cell, x) for block in blocks(t) for cell, x in zip(_cells(block[0]), block[part])]
    out = np.zeros(np.broadcast_shapes(*(np.shape(x) for _, x in cells)) + (dim, dim), dtype=complex)
    for (i, j), x in cells:
        out[..., j, i] = np.conj(x)
        out[..., i, j] = x  # a diagonal entry keeps x
    return out


def _block_trajectory(dim: int, blocks, horizon: float, params: dict, limit=None) -> Trajectory:
    """A model from its block function, which ``state_at`` and
    ``derivative_at`` scatter and both carry as ``blocks`` for the speed
    kernel (a ``functools.wraps`` wrapper keeps it, a replacement drops it)."""
    state, derivative = (functools.partial(_scatter, dim, blocks, part) for part in (1, 2))
    state.blocks = derivative.blocks = blocks
    return Trajectory(dim, horizon, state, derivative, params, limit)


def _closed_trajectory(kind: str, a, w: float, horizon: float) -> Trajectory:
    """Pure precessing states from real amplitude ``a`` (which may be an
    array) and beta = sqrt(1 - a^2).

    ``kind='1q'``: one spin, alpha e^{-i omega t/2}|1> + beta e^{i omega t/2}|0>.
    ``kind='aligned'``: two spins from alpha|11> + beta|00>, which accumulates
    the phases of both. ``kind='anti'``: two spins from alpha|10> + beta|01>,
    whose components are degenerate in energy, so the state never moves.
    """
    b = np.sqrt(1.0 - a * a)
    dim = 2 if kind == "1q" else 4
    spin = 0.5j if kind == "1q" else 1j  # phase rate per unit omega
    pair = {"1q": (0, 1), "aligned": (0, 3), "anti": (1, 2)}[kind]  # the other components stay empty
    at_rest = [((k,), [0.0], [0.0]) for k in range(dim) if k not in pair]

    def blocks(t):
        t = np.asarray(t, dtype=float)
        shape = t.shape if np.ndim(a) == 0 else np.broadcast_shapes(t.shape, np.shape(a))
        v = np.zeros((2,) + shape, dtype=complex)  # the pair's components
        dv = np.zeros_like(v)
        if kind == "anti":
            v[0], v[1] = a, b
        else:
            phase = np.exp(-spin * w * t)
            v[0], v[1] = a * phase, b / phase
            dv[0], dv[1] = -spin * w * a * phase, spin * w * b / phase
        # the pair's block of |v><v| and the Hermitian part of its derivative, on
        # arrays even at one point, so that a point and a batch share their bits
        state = v[:, None] * v[None, :].conj()
        move = dv[:, None] * v[None, :].conj() + v[:, None] * dv[None, :].conj()
        move = 0.5 * (move + move.conj().swapaxes(0, 1))
        return [(pair, [state[0, 0], state[1, 1], state[0, 1]], [move[0, 0], move[1, 1], move[0, 1]]), *at_rest]

    return _block_trajectory(dim, blocks, horizon, {"omega": w, "alpha_abs": np.abs(a), "beta_abs": np.abs(b)})


def _open_trajectory(kind: str, a, Gamma, horizon: float) -> Trajectory:
    """Locally damped qubit (``kind='1q'``) or pair from real amplitude ``a``;
    ``a`` and ``Gamma`` broadcast, ``Gamma = inf`` is the Markovian limit.

    ``kind='1q'`` starts from alpha|1> + sqrt(1-alpha^2)|0> and keeps the
    signed coherence amplitude G_t (the exact reduced dynamics), so the
    trajectory is smooth through the zeros of P_t; the amplitude-damping
    channel at P_t, whose coherence factor is sqrt(P_t), agrees with it
    wherever G_t >= 0. ``kind='aligned'`` starts from alpha|11> + beta|00>;
    ``kind='anti'`` from alpha|10> + beta|01>, whose evolved state
    P_t|phi0><phi0| + (1-P_t)|00><00| has constant eigenvectors and an
    alpha-independent speed.

    The entries are closed forms in the signed amplitude G_t (one qubit) or
    in P_t = min(G_t^2, 1) (pairs), Python floats at one point of scalar
    parameters. The pair entries are the local operation elements
    {[[sqrt P, 0], [0, 1]], [[0, 0], [sqrt(1 - P), 0]]} of each qubit
    multiplied out, in the order of floating-point operations of the Kraus
    sum with ``np.kron``, so both give the same bits.
    """
    b = math.sqrt(1.0 - a * a) if isinstance(a, float) else np.sqrt(1.0 - a * a)
    dim = 2 if kind == "1q" else 4

    def blocks(t):
        g, dg = _amplitudes(t, Gamma)
        dpop = 2.0 * g * dg
        if kind == "1q":
            pop = g * g
            state = [a * a * pop, 1.0 - a * a * pop, a * b * g]
            return [((0, 1), state, [a * a * dpop, -a * a * dpop, a * b * dg])]
        sqrt, lower, upper = (math.sqrt, min, max) if isinstance(g, float) else (np.sqrt, np.minimum, np.maximum)
        pop = lower(g * g, 1.0)
        root = sqrt(pop)
        decay = sqrt(upper(1.0 - root * root, 0.0))
        if kind == "aligned":
            kept, moved, lost = root * root, root * decay, decay * decay
            corners = [kept * (a * a) * kept, b * b + lost * (a * a) * lost, kept * (a * b)]
            middle = [moved * (a * a) * moved], [a * a * dpop * (1.0 - 2.0 * pop)]
            moves = [2.0 * a * a * pop * dpop, -2.0 * a * a * dpop * (1.0 - pop), a * b * dpop]
            return [((0, 3), corners, moves), ((1,), *middle), ((2,), *middle)]
        pair = [root * (a * a) * root, root * (b * b) * root, root * (a * b) * root]
        moves = [dpop * (a * a), dpop * (b * b), dpop * (a * b)]
        lost = decay * (b * b) * decay + decay * (a * a) * decay
        return [((0,), [0.0], [0.0]), ((1, 2), pair, moves), ((3,), [lost], [-dpop])]

    # "gamma0": 1.0 states the unit of every time and rate
    record = {"alpha": a, "gamma0": 1.0}
    if np.isinf(Gamma).all():
        record["markovian_limit"] = 1.0
    else:
        record["Gamma_over_gamma0"] = Gamma
    # The speed at t = 0, where the kernel sum is 0/0: the amplitude scale
    # times a rate that diverges in the Markovian limit, so alpha^2
    # sqrt(Gamma / 2) for one qubit, alpha sqrt(Gamma) for the aligned pair
    # and sqrt(Gamma / 2) for the anti pair. A zero scale is a state at
    # rest, whose limit is 0 at every width.
    scale = {"1q": a * a, "aligned": a, "anti": 1.0}[kind]
    rate = np.sqrt((1.0 if kind == "aligned" else 0.5) * Gamma)
    with np.errstate(invalid="ignore"):  # 0 * inf
        limit = np.where(scale == 0.0, 0.0, scale * rate)
    limit = _scalar_or_array(np.broadcast_to(limit, np.broadcast_shapes(np.shape(a), np.shape(Gamma))))
    return _block_trajectory(dim, blocks, horizon, record, limit)


# ---------------------------------------------------------------------------
# Analytic speeds


def open_qubit_speed_analytic(p: OpenSystemParams, t: float) -> float:
    """Closed-form speed of the damped qubit under the SLD metric.

    Evaluated as alpha |dG/dt| sqrt((1 - (1-alpha^2) P) / (1 - P)), which is
    the standard |dP/dt| form with the removable sqrt(P) singularity
    cancelled, so the zeros of P_t need no special handling. At t = 0 the
    limit alpha^2 sqrt(Gamma / 2) is returned (infinite in the
    Markovian limit).
    """
    _check_time(t)
    a = p.alpha
    if a == 0.0:
        return 0.0
    if t == 0.0:
        if p.markovian_limit:
            return math.inf
        return a * a * math.sqrt(0.5 * p.Gamma)
    pop = population_factor(p, t)
    comp = population_complement(p, t)
    dg = amplitude_factor_dot(p, t)
    return a * abs(dg) * math.sqrt((1.0 - (1.0 - a * a) * pop) / comp)


def open_two_qubit_speed_analytic(p: OpenSystemParams, t: float) -> float:
    """Closed-form speed of the locally damped aligned pair (SLD metric).

    Same sqrt(P) cancellation as the single-qubit form; the t = 0 limit is
    alpha sqrt(Gamma).
    """
    _check_time(t)
    a = p.alpha
    if a == 0.0:
        return 0.0
    if t == 0.0:
        if p.markovian_limit:
            return math.inf
        return a * math.sqrt(p.Gamma)
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
    x = 1 - sqrt(1 - C^2) and P = exp(-t). At t = 0 it is inf, like every
    Markovian-limit speed there, except 0 for the product state C = 0, which
    is at rest. ``C`` may be an array.
    """
    x = _concurrence_factor(C)
    _check_time(t)
    if t == 0.0:
        return _scalar_or_array(np.where(x == 0.0, 0.0, math.inf))
    pop = math.exp(-t)
    comp = -math.expm1(-t)
    numerator = x * pop * (1.0 - 2.0 * pop * comp)
    denominator = comp * (1.0 - x * pop * comp)
    return _scalar_or_array(0.5 * np.sqrt(numerator / denominator))


def alpha_from_concurrence(C):
    """Excited amplitude (<= 1/sqrt(2) branch) of an aligned pair with
    initial concurrence C = 2 alpha sqrt(1 - alpha^2); C may be an array."""
    return _scalar_or_array(np.sqrt(0.5 * _concurrence_factor(C)))


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
    Gamma_over_gamma0=None,
    markovian_limit: bool = False,
    horizon: float = 50.0,
) -> Trajectory:
    """Build a model trajectory, defined on [0, ``horizon``], from its string
    key and real parameters.

    Closed models precess at ``omega``. Open models need either
    ``Gamma_over_gamma0`` (a finite width) or ``markovian_limit``; their
    times are in units of gamma0.
    ``alpha`` and ``Gamma_over_gamma0`` may be arrays: the result is then a
    family of trajectories whose states broadcast time against them, for a
    parameter sweep evaluated in one batch.
    """
    if key not in MODEL_KEYS:
        raise ValueError(
            f"unknown model '{key}'; valid keys: {', '.join(MODEL_KEYS)}"
        )
    alpha = np.asarray(alpha, dtype=float) if np.ndim(alpha) else float(alpha)
    if key.startswith("closed"):
        for a in _extremes(alpha):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {a}")
        if not omega > 0.0:
            raise ValueError(f"omega must be positive, got {omega}")
        if omega == math.inf:
            raise ValueError(f"omega must be finite, got {omega}")
        kind = "1q" if key == "closed-1q" else key.removeprefix("closed-2q-")
        return _closed_trajectory(kind, alpha, omega, horizon)
    if Gamma_over_gamma0 is None and not markovian_limit:
        raise ValueError(
            f"model '{key}' needs Gamma_over_gamma0 or markovian_limit"
        )
    widths = (None,) if markovian_limit else _extremes(Gamma_over_gamma0)
    for a in _extremes(alpha):
        for ratio in widths:
            OpenSystemParams(alpha=a, Gamma=ratio, markovian_limit=markovian_limit)
    if markovian_limit:
        Gamma = math.inf
    elif np.ndim(Gamma_over_gamma0):
        Gamma = np.asarray(Gamma_over_gamma0, dtype=float)
    else:
        Gamma = float(Gamma_over_gamma0)
    kind = "1q" if key == "open-1q" else key.removeprefix("open-2q-")
    return _open_trajectory(kind, alpha, Gamma, horizon)
