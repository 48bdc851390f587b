"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from qevspeed import analysis
from qevspeed.cli import TableResult
from qevspeed.errors import RootBracketError
from qevspeed.models import OpenSystemParams
from qevspeed.speed import Trajectory


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def conjugate_trajectory(traj: Trajectory, unitary: np.ndarray) -> Trajectory:
    """The trajectory t -> U rho_t U^dagger with everything else carried over."""
    u = np.asarray(unitary, dtype=complex)
    u_dag = u.conj().T
    state = traj.state_at
    derivative = traj.derivative_at
    return dataclasses.replace(
        traj,
        state_at=lambda t: u @ state(t) @ u_dag,
        derivative_at=(
            None if derivative is None else (lambda t: u @ derivative(t) @ u_dag)
        ),
    )


def without_analytic_derivative(traj: Trajectory) -> Trajectory:
    return dataclasses.replace(traj, derivative_at=None)


def rank_leaking_trajectory(key: str, **kwargs) -> Trajectory:
    """A stand-in for ``trajectory_from_key`` whose derivative leaves the
    support of its rank-2 state for 1.9 < t < 2.1, where every evaluation
    fails with a ``RankIncreaseError``."""
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)

    def derivative(t):
        d = np.zeros((4, 4), dtype=complex)
        if 1.9 < t < 2.1:
            d[2, 3] = d[3, 2] = 1e-3
        return d

    return Trajectory(
        dim=4, horizon=kwargs.get("horizon") or 50.0, state_at=lambda t: rho.copy(),
        derivative_at=derivative, speed_at_zero=1.0,
    )


def bisect_speedup_end(p: OpenSystemParams, n: int) -> float:
    """Oracle for ``analysis.speedup_boundaries``: the root on branch ``n``,
    bisected one branch at a time on the scalar ``speedup_equation``."""
    _, kappa = analysis._oscillation_rates(p)
    low = 2.0 * n * math.pi / kappa
    high = (2.0 * n + 1.0) * math.pi / kappa - analysis._POLE_PAD
    g_low = analysis.speedup_equation(p, low)
    g_high = analysis.speedup_equation(p, high)
    if g_low >= 0.0 or g_high <= 0.0:
        raise RootBracketError(
            f"no sign change for the speedup-end equation on "
            f"({low:.6g}, {high:.6g}): g = ({g_low:.3e}, {g_high:.3e})"
        )
    for _ in range(analysis._MAX_BISECTIONS):
        mid = 0.5 * (low + high)
        g_mid = analysis.speedup_equation(p, mid)
        if abs(g_mid) <= analysis.ROOT_RESIDUAL_TOL:
            return mid
        if (g_mid < 0.0) == (g_low < 0.0):
            low, g_low = mid, g_mid
        else:
            high = mid
    raise RootBracketError(
        f"bisection failed to reach residual {analysis.ROOT_RESIDUAL_TOL:.1e} on "
        f"branch n = {n}"
    )


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
