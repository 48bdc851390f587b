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

One builder makes all six: a closed model is the damped one with the bath
switched off (G_t = 1) and the precession phase on its coherence.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .speed import Trajectory, _check_range

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
        return ("markovian", "critical", "oscillatory", "hyperbolic")[_width_branch(_width(self))[2]]


def _check_time(t) -> None:  # the trajectories' ValueError for a number or an array outside [0, inf)
    if isinstance(t, (int, float)) and not 0.0 <= t < math.inf:
        _check_range(t, t, t)
    elif not isinstance(t, (int, float)) and (t := np.asarray(t, dtype=float)).size:
        _check_range(t.min(), t.max(), t)


def _scalar_or_array(value: np.ndarray):
    """A 0-d result as a Python float, anything larger as the array."""
    return float(value) if value.ndim == 0 else value


def _markovian(xp, t, g, k):
    decay = xp.exp(-0.5 * t)
    return decay, -0.5 * decay


def _critical(xp, t, g, k):
    decay = xp.exp(-0.5 * g * t)
    return decay * (1.0 + 0.5 * g * t), -0.25 * g * g * t * decay


def _oscillatory(xp, t, g, k):
    half = 0.5 * k * t
    decay, sine = xp.exp(-0.5 * g * t), xp.sin(half)
    return decay * (xp.cos(half) + (g / k) * sine), -(g / k) * decay * sine


def _hyperbolic(xp, t, g, k):
    # For small arguments keep cosh/sinh (the split form below cancels badly
    # when Gamma/kappa is huge near the critical point).
    half = 0.5 * k * t
    decay, sinh = xp.exp(-0.5 * g * t), xp.sinh(half)
    return decay * (xp.cosh(half) + (g / k) * sinh), -(g / k) * decay * sinh


def _hyperbolic_split(xp, t, g, k):
    # For large arguments expand into decaying exponentials (kappa < Gamma)
    # to avoid cosh overflow. kappa - Gamma = -2 Gamma / (kappa + Gamma)
    # without the cancellation of the difference at large widths.
    up = xp.exp(-g / (k + g) * t)
    down = xp.exp(-0.5 * (k + g) * t)
    return (
        0.5 * ((1.0 + g / k) * up + (1.0 - g / k) * down),
        -(g / (2.0 * k)) * (up - down),
    )


_BRANCHES = (_markovian, _critical, _oscillatory, _hyperbolic, _hyperbolic_split)


def _width_branch(Gamma) -> tuple[float, float, int]:
    """``_one_width``'s leading arguments: the width, its kappa (inf in the Markovian limit) and branch index."""
    g = float(Gamma)
    return g, math.sqrt(g) * math.sqrt(abs(2.0 - g)), 0 if math.isinf(g) else 1 if g == 2.0 else 2 if g < 2.0 else 3


def _one_width(g, k, code, t):
    """``_amplitudes`` at one width, from its ``_width_branch``, with ``t`` unchecked."""
    if isinstance(t, (int, float)) or getattr(t, "ndim", None) == 0:
        t = float(t)
        return _BRANCHES[code if code < 3 or 0.5 * k * t < 20.0 else 4](math, t, g, k)
    t = np.asarray(t, dtype=float)
    if code == 3 and not (near := 0.5 * k * t < 20.0).all():
        value, slope = _hyperbolic_split(np, t, g, k)
        if near.any():
            value[near], slope[near] = _hyperbolic(np, t[near], g, k)
        return value, slope
    return _BRANCHES[code](np, t, g, k)


def _widths(t, Gamma):
    """``_amplitudes`` over an array of widths, with ``t`` unchecked: each
    element takes its width's branch by mask."""
    t, g = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(Gamma, dtype=float))
    markovian = np.isinf(g)
    finite = np.where(markovian, 0.0, g)
    k = np.sqrt(finite) * np.sqrt(np.abs(2.0 - finite))
    value, slope = np.empty(t.shape), np.empty(t.shape)
    code = np.where(finite == 2.0, 1, np.where(finite < 2.0, 2, np.where(0.5 * k * t < 20.0, 3, 4)))
    code[markovian] = 0
    for branch, formula in enumerate(_BRANCHES):
        mask = code == branch
        if mask.any():
            value[mask], slope[mask] = formula(np, t[mask], g[mask], k[mask])
    return value, slope


def _amplitudes(t, Gamma):
    """G_t and dG_t/dt elementwise over broadcast times and widths.

    ``Gamma = inf`` is the Markovian limit. Each element takes the branch
    that ``OpenSystemParams.branch`` names for its width, and the
    hyperbolic branch splits at kappa t / 2 = 20. A time outside [0, inf)
    raises ``ValueError``. One width (an int, a float or a 0-d array) takes
    ``_one_width`` and an array of widths ``_widths``: a model binds either
    at build, with no time check and no floating-point scope, which its
    block function's callers hold. A ``t`` of the same kinds as one width
    gives Python floats on libm (``xp = math``); any other ``t`` runs the
    branch on the whole time array, and an array of widths routes each
    element by mask. Arrays take numpy's ufuncs: the two array selections
    give the same bits, within a few ulp of the point path's. Their
    decaying terms may flush to zero, and their kappa t / 2 may overflow to
    inf at late times, which takes the split form, where exp(-inf) is the 0
    it rounds to: neither raises a warning.
    """
    one = isinstance(Gamma, (int, float)) or getattr(Gamma, "ndim", None) == 0
    if isinstance(t, (int, float)):
        if not 0.0 <= t < math.inf:
            _check_range(t, t, t)
        if one:  # Python floats: no numpy and no scope
            return _one_width(*_width_branch(Gamma), t)
    else:
        _check_time(t)
    with np.errstate(under="ignore", over="ignore"):
        return _one_width(*_width_branch(Gamma), t) if one else _widths(t, Gamma)


def _width(p: OpenSystemParams) -> float:
    return math.inf if p.markovian_limit else p.Gamma


def amplitude_factor(p: OpenSystemParams, t):
    """Signed coherence amplitude G_t; the excited population is G_t^2.

    G_t passes through zero in the oscillatory regime, flipping the sign of
    the coherences; the population factor is insensitive to the sign. ``t``
    may be an array.
    """
    return _amplitudes(t, _width(p))[0]


def amplitude_factor_dot(p: OpenSystemParams, t):
    """Closed-form time derivative of the coherence amplitude G_t."""
    return _amplitudes(t, _width(p))[1]


def population_factor(p: OpenSystemParams, t):
    """Excited-state survival factor P_t = G_t^2, in [0, 1]."""
    g = amplitude_factor(p, t)
    return min(g * g, 1.0) if isinstance(g, float) else np.minimum(g * g, 1.0)


def population_factor_dot(p: OpenSystemParams, t):
    """Closed-form dP/dt = 2 G_t dG/dt."""
    g, dg = _amplitudes(t, _width(p))
    return 2.0 * g * dg


def population_complement(p: OpenSystemParams, t: float) -> float:
    """1 - P_t without cancellation near P_t = 1.

    Computed from expm1/log1p of the amplitude factor when P_t >= 1/2; the
    direct subtraction is already accurate below that, and where G_t < 0
    (P_t stays below about 0.64 there for widths of at least 0.01).
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
        try:
            um1 = 2.0 * math.sinh(quarter) ** 2 + (g / k) * math.sinh(0.5 * k * t)
        except OverflowError:
            um1 = math.inf
        if um1 == math.inf:  # no sinh: u = exp(kappa t / 2) (1 - Gamma expm1(-kappa t) / (kappa (kappa + Gamma)))
            return -math.expm1(2.0 * math.log1p(-g / (k * (k + g)) * math.expm1(-k * t)) - 2.0 * g * t / (g + k))
    if um1 <= -1.0:  # u <= 0: G_t < 0 has no logarithm
        return 1.0 - value
    log_p = -g * t + 2.0 * math.log1p(um1)
    return -math.expm1(log_p)


# ---------------------------------------------------------------------------
# Trajectories
#
# Every model is an X state, built by one block function (a closed model at
# G_t = 1). It takes a time or an array of times, broadcasts it against the
# model's parameters (which may be arrays too) and returns the diagonal
# blocks in the real layout ``speed.Trajectory`` states, each with the
# smooth signed root s of its determinant, so a whole grid is built in one
# call. It takes its time unchecked and runs in its caller's floating-point
# state: ``speeds_at``, ``speed_at``'s family path and ``_scatter`` check the
# time and hold the scope. ``state_at`` and ``derivative_at`` scatter the blocks.


def _scatter(dim: int, blocks, part: int, t) -> np.ndarray:
    """The dense state (``part`` 1) or derivative (2) matrices of the blocks
    at times ``t``, checked as ``speeds_at`` checks them, stacked along
    their broadcast shape. It holds the block function's floating-point
    scope, with underflow and overflow ignored, as ``speeds_at`` does."""
    _check_time(t)
    with np.errstate(under="ignore", over="ignore"):
        entries = [(block[0], block[part], *block[3:]) for block in blocks(t)]
    shape = np.broadcast_shapes(np.shape(t), *(np.shape(x) for _, *lists in entries for xs in lists for x in xs))
    out = np.zeros(shape + (dim, dim), dtype=complex)
    for indices, xs, *ray in entries:
        for u, v in ray:  # a ray's vector: p phi phi^T in np.kron's order, root (phi_i phi_j) root, root = sqrt(p)
            left, right = (np.sqrt(xs[0]),) * 2 if part == 1 else (xs[0], 1.0)
            xs = [left * (u * u) * right, left * (v * v) * right, left * (u * v) * right, 0.0]
        for i, x in zip(indices, xs):
            out.real[..., i, i] = x
        if len(indices) == 2:
            (i, j), (re, im) = indices, xs[2:4]
            out.real[..., i, j] = out.real[..., j, i] = re
            out.imag[..., i, j], out.imag[..., j, i] = im, -im
    return out


def _x_trajectory(kind: str, a, w: float, Gamma) -> Trajectory:
    """The model ``kind`` from real amplitude ``a`` (which may be an array)
    and beta = sqrt(1 - a^2): '1q' starts from alpha|1> + beta|0>, 'aligned'
    from alpha|11> + beta|00> and 'anti' from alpha|10> + beta|01>.

    ``Gamma is None`` is a closed model, G_t = 1, whose spins precess at
    ``w``: the coherence turns at w, at 2w (the aligned pair accumulates
    both phases) or not at all (the anti pair's components are degenerate
    in energy). Otherwise each qubit is damped at width ``Gamma`` (``inf``
    is the Markovian limit), which broadcasts against ``a``, and ``w`` is 0.
    One qubit keeps the signed G_t, so it is smooth through the zeros of
    P_t (the amplitude-damping channel agrees wherever G_t >= 0). The pairs
    take P_t = min(G_t^2, 1) and multiply out the local operation elements
    {[[sqrt P, 0], [0, 1]], [[0, 0], [sqrt(1 - P), 0]]} of each qubit in the
    order of the Kraus sum with ``np.kron``, so both give the same bits.
    Each block also states the root s of its determinant through
    c_t = sqrt(1 - P_t): alpha^2 G_t c_t for one qubit, alpha^2 P_t (1 - P_t)
    and alpha G_t c_t for the aligned pair's corner block and middle
    indices, and G_t and c_t for the anti pair, P_t|phi0><phi0| +
    (1-P_t)|00><00|, whose P_t along phi0 is a ray: its speed is |G'_t| / c_t
    at any alpha. Every closed-model root is 0 (c_t = 0) but the ray's.
    A block function per layout is bound at build, over an entry function per
    bath: a closed model's computes only the phase (G = 1), an open one's none.
    """
    b = math.sqrt(1.0 - a * a) if isinstance(a, float) else np.sqrt(1.0 - a * a)
    aa, ab, bb = a * a, a * b, b * b
    turns = {"1q": 1.0, "aligned": 2.0, "anti": 0.0}[kind] if w else 0.0  # the coherence's phase is turns (w t)
    turn = -turns * (w * ab)  # the phase's rate times -alpha beta, finite where turns w is not
    # the last time of finite phase, whose phase later times take: no speed depends on it
    wrap = sys.float_info.max / turns / max(w, 1.0 / turns) if turns else 0.0
    wrap = math.nextafter(wrap, 0.0) if turns * (w * wrap) == math.inf else wrap
    ab_sin0, turn_sin0 = ab * 0.0, turn * 0.0  # at phase 0, where cos is 1

    if Gamma is None and not turns:
        def entries(t):
            return 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, ab, ab_sin0, turn, turn_sin0
    elif Gamma is None:
        def entries(t):  # one point on libm (numpy's float64, a 0-d time's phase, is a float), a batch on numpy's
            phase = turns * (w * ((t if t <= wrap else wrap) if isinstance(t, float) else np.minimum(t, wrap)))
            xp = math if isinstance(phase, float) else np
            cos, sin = xp.cos(phase), xp.sin(phase)
            return 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, ab * cos, ab * sin, turn * cos, turn * sin
    else:
        # t -> (G_t, G'_t), with no time check: the block function's callers make it
        if np.ndim(Gamma) == 0:
            amplitudes = functools.partial(_one_width, *_width_branch(Gamma))
        else:
            amplitudes = functools.partial(_widths, Gamma=Gamma)

        def entries(t):
            g, dg = amplitudes(t)
            dpop = 2.0 * g * dg
            # c_t = sqrt(1 - P_t) of P_t = min(G^2, 1), whose root is at most 1, and c' = -G G' / c, or 0 where c is
            # 0: at t = 0, where the speed takes its limit, and where 1 - P_t rounds to 0 (t < 1e-8 at Gamma 0.1)
            if isinstance(g, float):  # one point
                root = math.sqrt(pop := min(g * g, 1.0))
                decay = math.sqrt(1.0 - root * root)
                ddecay = -(g * dg) / decay if decay else 0.0
                return g, dg, pop, dpop, root, decay, ddecay, ab, ab_sin0, turn, turn_sin0
            root = np.sqrt(pop := np.minimum(g * g, 1.0))
            decay = np.sqrt(1.0 - root * root)
            ddecay = np.divide(-(g * dg), decay, out=np.zeros(np.shape(decay)), where=decay != 0.0)
            return g, dg, pop, dpop, root, decay, ddecay, ab, ab_sin0, turn, turn_sin0

    def qubit(t):
        g, dg, pop, dpop, root, decay, ddecay, ab_cos, ab_sin, turn_cos, turn_sin = entries(t)
        square = g * g
        state = [aa * square, 1.0 - aa * square, g * ab_cos, -(g * ab_sin), aa * (g * decay)]
        move = [aa * dpop, -aa * dpop, dg * ab_cos + g * turn_sin, g * turn_cos - dg * ab_sin]
        move.append(aa * (dg * decay + g * ddecay))
        return [((0, 1), state, move)]

    def aligned(t):
        g, dg, pop, dpop, root, decay, ddecay, ab_cos, ab_sin, turn_cos, turn_sin = entries(t)
        kept, moved, lost = root * root, root * decay, decay * decay
        inner = aa * dpop * (1.0 - 2.0 * pop)  # d(alpha^2 P (1 - P)) / dt
        corners = [kept * aa * kept, bb + lost * aa * lost, kept * ab_cos, -(kept * ab_sin), aa * kept * lost]
        moves = [2.0 * a * a * pop * dpop, -2.0 * a * a * dpop * (1.0 - pop)]  # (2a) a: 2 aa differs at subnormal aa
        moves += [dpop * ab_cos + kept * turn_sin, kept * turn_cos - dpop * ab_sin, inner]
        middle = [moved * aa * moved, a * (g * decay)], [inner, a * (dg * decay + g * ddecay)]
        return [((0, 3), corners, moves), ((1,), *middle), ((2,), *middle)]

    def anti(t):
        g, dg, pop, dpop, root, decay, ddecay = entries(t)[:7]
        lost = decay * bb * decay + decay * aa * decay
        return [((1, 2), [pop, g], [dpop, dg], (a, b)), ((3,), [lost, decay], [-dpop, ddecay])]

    blocks, dim = {"1q": (qubit, 2), "aligned": (aligned, 4), "anti": (anti, 4)}[kind]
    state, derivative = (functools.partial(_scatter, dim, blocks, part) for part in (1, 2))
    if Gamma is None:
        record = {"omega": w, "alpha_abs": np.abs(a), "beta_abs": np.abs(b)}
        return Trajectory(dim, state, derivative, record, shape=getattr(a, "shape", ()), blocks=blocks)
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
    escape = np.sqrt((1.0 if kind == "aligned" else 0.5) * Gamma)
    with np.errstate(invalid="ignore"):  # 0 * inf
        limit = np.where(scale == 0.0, 0.0, scale * escape)
    shape = np.broadcast_shapes(np.shape(a), np.shape(Gamma))
    limit = _scalar_or_array(np.broadcast_to(limit, shape))
    return Trajectory(dim, state, derivative, record, limit, shape, blocks)


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
    if comp < sys.float_info.min:  # a subnormal t, which comp is: its root divides apart, or the quotient overflows
        return _scalar_or_array(0.5 * np.sqrt(numerator / (1.0 - x * pop * comp)) / math.sqrt(comp))
    return _scalar_or_array(0.5 * np.sqrt(numerator / (comp * (1.0 - x * pop * comp))))


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
) -> Trajectory:
    """Build a model trajectory, defined for every t >= 0, from its string
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
    closed = key.startswith("closed")
    if not closed and Gamma_over_gamma0 is None and not markovian_limit:
        raise ValueError(
            f"model '{key}' needs Gamma_over_gamma0 or markovian_limit"
        )
    alpha = np.asarray(alpha, dtype=float) if np.ndim(alpha) else float(alpha)
    for a in _extremes(alpha):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")
    kind = key.split("-")[-1]
    if closed:
        if not omega > 0.0:
            raise ValueError(f"omega must be positive, got {omega}")
        if omega == math.inf:
            raise ValueError(f"omega must be finite, got {omega}")
        return _x_trajectory(kind, alpha, float(omega), None)
    for ratio in (None,) if markovian_limit else _extremes(Gamma_over_gamma0):
        OpenSystemParams(Gamma=ratio, markovian_limit=markovian_limit)
    Gamma = math.inf if markovian_limit else Gamma_over_gamma0
    Gamma = np.asarray(Gamma, dtype=float) if np.ndim(Gamma) else float(Gamma)
    return _x_trajectory(kind, alpha, 0.0, Gamma)
