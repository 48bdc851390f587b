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
switched off (G_t = 1) and the precession phase on its dense states.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .metrics import MetricKind
from .speed import _NONNEGATIVE, _POSITIVE, Trajectory, _check_range, _time_measures, speeds_at, speedup_measures

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
        """|2 Gamma - Gamma^2|^(1/2), the oscillation rate when Gamma < 2, as ``_width_branch`` takes it:
        sqrt(Gamma) sqrt(|2 - Gamma|) neither overflows nor loses 2 Gamma next to Gamma^2 at large widths."""
        if self.markovian_limit:
            raise ValueError("kappa is undefined in the Markovian limit")
        return _width_branch(self.Gamma)[1]

    def branch(self) -> str:
        """One of 'markovian', 'oscillatory', 'critical', 'hyperbolic'."""
        return {0: "markovian", 2: "critical", 3: "oscillatory", 4: "hyperbolic"}[_width_branch(_width(self))[2]]


def _check_time(t) -> None:  # the trajectories' ValueError for a number or an array outside [0, inf)
    if isinstance(t, (int, float)) and not 0.0 <= t < math.inf:
        _check_range(t, t, t)
    elif not isinstance(t, (int, float)) and (t := np.asarray(t, dtype=float)).size:
        _check_range(t.min(), t.max(), t)


def _scalar_or_array(value: np.ndarray):
    """A 0-d result as a Python float, anything larger as the array."""
    return float(value) if value.ndim == 0 else value


# The branch table: each entry takes the module (``math`` or ``np``), times, widths and kappas and returns G_t, G'_t
# and 1 - G_t, the last without the cancellation of 1 minus a G_t near 1: -expm1(-Gamma t / 2) plus the rest.
def _markovian(xp, t, g, k):
    decay = xp.exp(-0.5 * t)
    return decay, -0.5 * decay, -xp.expm1(-0.5 * t)


def _series_coefficients(g):
    """(d_n, n d_n) for n = 16 .. 2, stacked on the last two axes, of G_t = 1 + sum d_n u^n, u = s t and
    s = max(Gamma, 1), from G'' = -Gamma G' - (Gamma / 2) G, G = 1 and G' = 0 at t = 0: in u the rates are
    Gamma / s <= 1 and Gamma / (2 s^2) <= 1/2, so the coefficients stay bounded at any width. Where the series runs
    u < 1/2, and the terms fall as about 2 u^(n-2) / n! against the first: d_16's is below 1e-17 of it."""
    s = np.maximum(g, 1.0) if isinstance(g, np.ndarray) else max(g, 1.0)
    a, b = g / s, g / (2.0 * s * s)
    d, d_next, coefficients = 1.0, 0.0, []
    for n in range(15):
        d, d_next = d_next, -(a * (n + 1) * d_next + b * d) / ((n + 2) * (n + 1))
        coefficients.append((d_next, (n + 2) * d_next))
    return np.moveaxis(np.array(coefficients[::-1]), (0, 1), (-1, -2))


_width_series = functools.lru_cache(maxsize=256)(lambda g: (rows := _series_coefficients(g), rows.tolist()))


def _series(xp, t, g, k):
    # t < min(1/4, 1 / (2 Gamma)), where every closed form cancels in 1 - G_t = Gamma t^2 / 4 + ...: d_n u^(n-2) and
    # n d_n u^(n-2) summed from n = 16 down, u^k = u^(k-1) u, by the same steps on floats and arrays (accumulate's)
    s = max(g, 1.0) if isinstance(g, float) else np.maximum(g, 1.0)
    u = s * t
    if not (u if isinstance(u, float) else u.any()):
        value = slope = -u  # u = +0 at every point, where d_2 < 0 sets only the zeros' signs: 1 - G_t = +0, G'_t = -0
    elif isinstance(u, float):
        powers = [1.0]
        for _ in range(14):
            powers.append(powers[-1] * u)
        value = slope = 0.0
        for d, nd, power in zip(*_width_series(g)[1], powers[::-1]):
            value += d * power
            slope += nd * power
    else:
        rows = _width_series(g)[0] if isinstance(g, float) else _series_coefficients(g)
        powers = np.empty((*u.shape, 15))
        powers[..., 0], powers[..., 1:] = 1.0, u[..., None]
        sums = np.add.accumulate(np.multiply.accumulate(powers, axis=-1)[..., None, ::-1] * rows, axis=-1)
        value, slope = sums[..., 0, -1], sums[..., 1, -1]
    lost = u * u * -value  # +0.0 at t = 0
    return 1.0 - lost, s * (u * slope), lost


def _critical(xp, t, g, k):
    x = 0.5 * g * t
    decay = xp.exp(-x)
    return decay * (1.0 + x), -0.25 * g * g * t * decay, -xp.expm1(-x) - x * decay


def _oscillatory(xp, t, g, k):
    half, x = 0.5 * k * t, -0.5 * g * t
    decay, sine, cosine = xp.exp(x), xp.sin(half), xp.cos(half)
    turn = (g / k) * sine
    if xp is math:  # 1 - cos y without cancellation: sin^2 y / (1 + cos y) where cos y >= 0
        versine = sine * sine / (1.0 + cosine) if cosine >= 0.0 else 1.0 - cosine
    else:
        versine = np.divide(sine * sine, 1.0 + cosine, out=1.0 - cosine, where=cosine >= 0.0)
    return decay * (cosine + turn), -(g / k) * decay * sine, decay * (versine - turn) - xp.expm1(x)


def _hyperbolic(xp, t, g, k):
    # between the split form's ranges, where it cancels badly if Gamma / kappa is huge (near the critical width)
    half, x = 0.5 * k * t, -0.5 * g * t
    decay, sinh, quarter = xp.exp(x), xp.sinh(half), xp.sinh(0.5 * half)
    turn = (g / k) * sinh
    lost = -xp.expm1(x) - decay * (2.0 * quarter * quarter + turn)  # cosh - 1 = 2 sinh^2(kappa t / 4)
    return decay * (xp.cosh(half) + turn), -(g / k) * decay * sinh, lost


def _hyperbolic_split(xp, t, g, k):
    # t < 1/4 or kappa t / 2 >= 20 (where cosh overflows): decaying exponentials, kappa - Gamma = -2 Gamma / (kappa +
    # Gamma) and 1 - Gamma / kappa = -2 Gamma / (kappa (kappa + Gamma)) without the differences' cancellation
    slow, fast = -g / (k + g) * t, -0.5 * (k + g) * t
    up, down = xp.exp(slow), xp.exp(fast)
    lost = 0.5 * ((g / (k + g)) * (2.0 / k) * xp.expm1(fast) - (1.0 + g / k) * xp.expm1(slow))
    return 0.5 * ((1.0 + g / k) * up + (1.0 - g / k) * down), -(g / (2.0 * k)) * (up - down), lost


_BRANCHES = (_markovian, _series, _critical, _oscillatory, _hyperbolic, _hyperbolic_split)


def _width_branch(Gamma) -> tuple[float, float, int]:
    """``_one_width``'s leading arguments: the width, its kappa (inf in the Markovian limit) and its width's
    ``_BRANCHES`` index (0, 2, 3 or 4), which the time refines to the series (1) or the split form (5)."""
    g = float(Gamma)
    return g, math.sqrt(g) * math.sqrt(abs(2.0 - g)), 0 if math.isinf(g) else 2 if g == 2.0 else 3 if g < 2.0 else 4


def _one_width(g, k, code, t):
    """``_amplitudes`` at one width, from its ``_width_branch``, with ``t`` unchecked. An array of times takes the
    width's branch everywhere (a hyperbolic width's split form), then the series' and cosh/sinh's times by mask."""
    if isinstance(t, (int, float)) or getattr(t, "ndim", None) == 0:
        t = float(t)
        code = 1 if t < min(0.25, 0.5 / g) else 5 if code == 4 and (t < 0.25 or 0.5 * k * t >= 20.0) else code
        return _BRANCHES[code](math, t, g, k)
    t = np.asarray(t, dtype=float)
    value, slope, lost = _BRANCHES[5 if code == 4 else code](np, t, g, k)
    patches = [(1, t < min(0.25, 0.5 / g))] if code else []
    patches += [(4, (t >= 0.25) & (0.5 * k * t < 20.0))] if code == 4 else []
    for branch, mask in patches:
        if mask.any():
            value[mask], slope[mask], lost[mask] = _BRANCHES[branch](np, t[mask], g, k)
    return value, slope, lost


def _widths(t, Gamma):
    """``_amplitudes`` over an array of widths, with ``t`` unchecked: each
    element takes the branch ``_one_width`` gives it, by mask."""
    t, g = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(Gamma, dtype=float))
    markovian = np.isinf(g)
    finite = np.where(markovian, 0.0, g)
    k = np.sqrt(finite) * np.sqrt(np.abs(2.0 - finite))
    codes = np.where(t < np.minimum(0.25, 0.5 / g), 1, np.where(finite == 2.0, 2, np.where(finite < 2.0, 3, 4)))
    codes = np.where((codes == 4) & ((t < 0.25) | (0.5 * k * t >= 20.0)), 5, codes)
    codes[markovian] = 0
    value, slope, lost = np.empty((3, *t.shape))
    for branch in np.flatnonzero(np.bincount(codes.ravel(), minlength=len(_BRANCHES))).tolist():
        mask = codes == branch  # a row at a time: out[:, mask] would copy the three results into one array first
        value[mask], slope[mask], lost[mask] = _BRANCHES[branch](np, t[mask], g[mask], k[mask])
    return value, slope, lost


def _amplitudes(t, Gamma):
    """G_t, dG_t/dt and 1 - G_t elementwise over broadcast times and widths.

    ``Gamma = inf`` is the Markovian limit. Each element takes the entry of
    ``_BRANCHES`` its width names (``OpenSystemParams.branch``), but the
    Taylor series where Gamma t < 1/2 and t < 1/4 at a finite width, and
    the hyperbolic split form where t < 1/4 or kappa t / 2 >= 20. So
    1 - P_t = (1 - G_t)(1 + G_t) keeps its digits next to P_t = 1. A time
    outside [0, inf) raises ``ValueError``. One width (an int, a float or a
    0-d array) takes ``_one_width`` and an array of widths ``_widths``: a
    model binds either at build, with no time check and no floating-point
    scope, which its block function's callers hold. A ``t`` of the same
    kinds as one width gives Python floats on libm (``xp = math``); any
    other ``t`` runs the branches on numpy's ufuncs, by mask where they
    differ, within a few ulp of the point path (more in 1 - G_t just past
    t = 1/4, where it keeps 1/8 of its terms). Their decaying terms may
    flush to zero, and kappa t / 2 may overflow to inf, which takes the
    split form, where exp(-inf) is the 0 it rounds to: neither warns.
    """
    one = isinstance(Gamma, (int, float)) or getattr(Gamma, "ndim", None) == 0
    _check_time(t)
    if one and isinstance(t, (int, float)):  # Python floats: no numpy and no scope
        return _one_width(*_width_branch(Gamma), t)
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
    g, dg, _ = _amplitudes(t, _width(p))
    return 2.0 * g * dg


def population_complement(p: OpenSystemParams, t):
    """1 - P_t = (1 - G_t)(1 + G_t), with 1 - G_t from the branch table,
    so it keeps its digits where P_t is near 1. ``t`` may be an array."""
    g, _, lost = _amplitudes(t, _width(p))
    return lost * (1.0 + g)


# ---------------------------------------------------------------------------
# Trajectories
#
# Every model is an X state, built by one block function (a closed model at
# G_t = 1). It takes a time or an array of times, broadcasts it against the
# model's parameters (which may be arrays too) and returns the diagonal
# blocks in the real layout ``speed.Trajectory`` states, each with the
# smooth signed root s of its determinant, so a whole grid is built in one
# call. It takes its time unchecked and runs in its caller's floating-point
# state: ``speeds_at`` and ``_scatter`` check the time and hold the scope.
# ``state_at`` and ``derivative_at`` scatter the blocks and apply the phase.


def _scatter(dim: int, blocks, turns: float, w: float, part: int, t) -> np.ndarray:
    """The dense state (``part`` 1) or derivative (2) matrices of the blocks
    at times ``t``, checked as ``speeds_at`` checks them, stacked along
    their broadcast shape. It holds the block function's floating-point
    scope, with underflow and overflow ignored, as ``speeds_at`` does. It
    turns each pair by the phase turns (w t), clamped where it stays finite."""
    _check_time(t)
    with np.errstate(under="ignore", over="ignore"):
        entries = [(block[0], block[part], *block[3:]) for block in blocks(t)]
    shape = np.broadcast_shapes(np.shape(t), *(np.shape(x) for _, *lists in entries for xs in lists for x in xs))
    out = np.zeros(shape + (dim, dim), dtype=complex)
    if turns:  # one point on libm (numpy's float64, a 0-d time's phase, is a float), a batch on numpy's
        wrap = sys.float_info.max / turns / max(w, 1.0 / turns)
        wrap = math.nextafter(wrap, 0.0) if turns * (w * wrap) == math.inf else wrap
        phase = turns * (w * ((t if t <= wrap else wrap) if isinstance(t, float) else np.minimum(t, wrap)))
        xp = math if isinstance(phase, float) else np
        cos, sin = xp.cos(phase), xp.sin(phase)
    for indices, xs, *ray in entries:
        for u, v in ray:  # a ray's vector: p phi phi^T in np.kron's order, root (phi_i phi_j) root, root = sqrt(p)
            left, right = (np.sqrt(xs[0]),) * 2 if part == 1 else (xs[0], 1.0)
            xs = [left * (u * u) * right, left * (v * v) * right, left * (u * v) * right, 0.0]
        for i, x in zip(indices, xs):
            out.real[..., i, i] = x
        if len(indices) == 2:
            (i, j), (re, im) = indices, xs[2:4]
            re, im = (re * cos + im * sin, im * cos - re * sin) if turns else (re, im)
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
    {[[sqrt P, 0], [0, 1]], [[0, 0], [c_t, 0]]} of each qubit in the order
    of the Kraus sum with ``np.kron``, with c_t = sqrt((1 - G_t)(1 + G_t))
    from the branch table. Each block states the root s of its determinant
    through c_t: alpha^2 G_t c_t for one qubit, alpha^2 P_t (1 - P_t) and
    alpha G_t c_t for the aligned pair's corner block and middle indices,
    and G_t and c_t for the anti pair, P_t|phi0><phi0| + (1-P_t)|00><00|,
    whose speed is |G'_t| / c_t at any alpha. c' = -G_t G'_t / c_t, and
    where c_t is 0 (t = 0) its limit sqrt(Gamma / 2), so t = 0 needs no
    case of its own. A closed model's roots are 0 (c_t = 0) but the ray's.
    A block function per layout is bound at build, over an entry function
    per bath (a closed model's returns constants), and states phase 0:
    ``_scatter`` applies the phase.
    """
    b = math.sqrt(1.0 - a * a) if isinstance(a, float) else np.sqrt(1.0 - a * a)
    aa, ab, bb = a * a, a * b, b * b
    turns = {"1q": 1.0, "aligned": 2.0, "anti": 0.0}[kind] if w else 0.0  # the coherence's phase is turns (w t)
    turn = -turns * (w * ab)  # the phase's rate times -alpha beta, finite where turns w is not

    if Gamma is None:
        def entries(t):
            return 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0
    else:
        # t -> (G_t, G'_t, 1 - G_t), with no time check: the block function's callers make it
        if np.ndim(Gamma) == 0:
            amplitudes = functools.partial(_one_width, *_width_branch(Gamma))
        else:
            amplitudes = functools.partial(_widths, Gamma=Gamma)

        # c' where c_t is 0 (at t = 0, or where 1 - P_t underflows): sqrt(Gamma / 2), the limit of -G G' / c. It is
        # inf in the Markovian limit, and 0 where the state is at rest, which no block then multiplies by inf.
        if np.ndim(a) or np.ndim(Gamma):
            escape = np.where((a == 0.0) & (kind != "anti"), 0.0, np.sqrt(0.5 * Gamma))
        else:
            escape = 0.0 if a == 0.0 and kind != "anti" else math.sqrt(0.5 * Gamma)

        def entries(t):
            g, dg, lost = amplitudes(t)
            dpop = 2.0 * g * dg
            # P_t = min(G^2, 1), whose root is at most 1, c_t = sqrt((1 - G)(1 + G)) and c' = -G G' / c
            if isinstance(g, float):  # one point
                root = math.sqrt(pop := min(g * g, 1.0))
                decay = math.sqrt(lost * (1.0 + g))
                ddecay = -(g * dg) / decay if decay else escape
                return g, dg, pop, dpop, root, decay, ddecay
            root = np.sqrt(pop := np.minimum(g * g, 1.0))
            decay = np.sqrt(lost * (1.0 + g))
            ddecay = np.full(np.broadcast_shapes(decay.shape, np.shape(escape)), escape)
            np.divide(-(g * dg), decay, out=ddecay, where=decay != 0.0)
            return g, dg, pop, dpop, root, decay, ddecay

    def qubit(t):
        g, dg, pop, dpop, root, decay, ddecay = entries(t)
        square = g * g
        state = [aa * square, 1.0 - aa * square, g * ab, 0.0, aa * (g * decay)]
        move = [aa * dpop, -aa * dpop, dg * ab, g * turn, aa * (dg * decay + g * ddecay)]
        return [((0, 1), state, move)]

    def aligned(t):
        g, dg, pop, dpop, root, decay, ddecay = entries(t)
        kept, moved, lost = root * root, root * decay, decay * decay
        inner = aa * dpop * (1.0 - 2.0 * pop)  # d(alpha^2 P (1 - P)) / dt
        corners = [kept * aa * kept, bb + lost * aa * lost, kept * ab, 0.0, aa * kept * lost]
        moves = [2.0 * a * a * pop * dpop, -2.0 * a * a * dpop * (1.0 - pop)]  # (2a) a: 2 aa differs at subnormal aa
        moves += [dpop * ab, kept * turn, inner]
        middle = [moved * aa * moved, a * (g * decay)], [inner, a * (dg * decay + g * ddecay)]
        return [((0, 3), corners, moves), ((1,), *middle), ((2,), *middle)]

    def anti(t):
        g, dg, pop, dpop, root, decay, ddecay = entries(t)
        lost = decay * bb * decay + decay * aa * decay
        return [((1, 2), [pop, g], [dpop, dg], (a, b)), ((3,), [lost, decay], [-dpop, ddecay])]

    blocks, dim = {"1q": (qubit, 2), "aligned": (aligned, 4), "anti": (anti, 4)}[kind]
    state, derivative = (functools.partial(_scatter, dim, blocks, turns, w, part) for part in (1, 2))
    if Gamma is None:
        record = {"omega": w, "alpha_abs": np.abs(a), "beta_abs": np.abs(b)}
        return Trajectory(dim, state, derivative, record, shape=getattr(a, "shape", ()), blocks=blocks)
    # "gamma0": 1.0 states the unit of every time and rate
    record = {"alpha": a, "gamma0": 1.0}
    if np.isinf(Gamma).all():
        record["markovian_limit"] = 1.0
    else:
        record["Gamma_over_gamma0"] = Gamma
    return Trajectory(dim, state, derivative, record, shape=np.broadcast_shapes(np.shape(a), np.shape(Gamma)),
                      blocks=blocks)


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
    if a == 0.0 or t == 0.0:
        return a * a * math.sqrt(0.5 * _width(p)) if a else 0.0
    g, dg, lost = _amplitudes(t, _width(p))
    pop, comp = min(g * g, 1.0), lost * (1.0 + g)
    return a * abs(dg) * math.sqrt((1.0 - (1.0 - a * a) * pop) / comp)


def open_two_qubit_speed_analytic(p: OpenSystemParams, t: float) -> float:
    """Closed-form speed of the locally damped aligned pair (SLD metric).

    Same sqrt(P) cancellation as the single-qubit form; the t = 0 limit is
    alpha sqrt(Gamma).
    """
    _check_time(t)
    a = p.alpha
    if a == 0.0 or t == 0.0:
        return a * math.sqrt(_width(p)) if a else 0.0
    g, dg, lost = _amplitudes(t, _width(p))
    pop, comp = min(g * g, 1.0), lost * (1.0 + g)
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


# ---------------------------------------------------------------------------
# Sweeps
#
# Each sweep parameter's domain as ``speedup_measures`` takes it, which a grid must lie in; the ValueError naming a
# point outside it; and the model parameter that a transverse sweep sets, as a function of the swept value.
_SWEEPS = {
    "t": (_NONNEGATIVE, "t = {:.12g} outside trajectory range [0, inf)", None, None),
    "alpha": ((0.0, 1.0), "alpha sweep left [0, 1] at {:.12g}", "alpha", lambda alpha: alpha),
    "C": ((0.0, 1.0), "C sweep left [0, 1] at {:.12g}", "alpha", alpha_from_concurrence),
    "Omega": (_POSITIVE, "Omega must stay positive, got {:.12g}", "Gamma_over_gamma0", lambda omega: 1.0 / omega),
    "Gamma_over_gamma0": (_POSITIVE, "Gamma/gamma0 must stay positive, got {:.12g}", "Gamma_over_gamma0", lambda x: x),
}
SWEEP_PARAMS = tuple(_SWEEPS)


@dataclass(frozen=True)
class SpeedSweep:
    """Speeds along a grid of one parameter, with their slopes (``speed_sweep``)."""

    grid: np.ndarray
    speeds: np.ndarray
    slopes: np.ndarray  # dS/dxi, nan where the row's speed diverges
    diverges: bool  # whether any slope is nan
    trajectory: Trajectory | None  # a t sweep's


def speed_sweep(key: str, name: str, grid, metric: MetricKind = MetricKind.SLD, *, time=None, alpha=1.0,
                omega: float = 1.0, Gamma_over_gamma0=None, markovian_limit: bool = False) -> SpeedSweep:
    """The speed of model ``key``, all else fixed, and its slope dS/dxi over
    a grid of the parameter ``name`` (``SWEEP_PARAMS``), from one batch: a t
    sweep along one trajectory, with ``speed_curve``'s slopes on any grid,
    or a transverse sweep over a family at ``time``. The grid must lie in
    the domain the stencil keeps to: t in [0, inf), alpha and C in [0, 1],
    Omega and Gamma_over_gamma0 in (0, inf). Raises ``ValueError`` for a
    point outside it, a C sweep of one qubit, a width sweep of a closed or
    Markovian model, and as ``trajectory_from_key`` does."""
    domain, message, parameter, of = _SWEEPS[name]
    grid = np.asarray(grid, dtype=float)
    params = dict(alpha=alpha, omega=omega, Gamma_over_gamma0=Gamma_over_gamma0, markovian_limit=markovian_limit)
    traj = trajectory_from_key(key, **params) if name == "t" else None
    if name == "C" and "-2q-" not in key:
        raise ValueError(f"concurrence sweep needs a two-qubit model, got '{key}'")
    if parameter == "Gamma_over_gamma0" and key.startswith("closed"):
        raise ValueError(f"sweep '{name}' needs an open-system model, got '{key}'")
    if parameter == "Gamma_over_gamma0" and markovian_limit:
        raise ValueError(f"sweep '{name}' varies the spectral width, which markovian_limit takes to infinity")
    if not (domain[0] <= grid.min() and grid.max() <= domain[1]):
        raise ValueError(message.format(grid[~((grid >= domain[0]) & (grid <= domain[1]))][0]))
    if traj is not None:
        speeds, slopes = _time_measures(traj, grid, metric)
    else:
        def evaluate(values: np.ndarray) -> np.ndarray:
            return speeds_at(trajectory_from_key(key, **{**params, parameter: of(values)}), time, metric)

        speeds, slopes = speedup_measures(evaluate, grid, domain)
    return SpeedSweep(grid, speeds, slopes, bool(np.isnan(slopes).any()), traj)
