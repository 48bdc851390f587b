"""Boundary-extendable monotone Riemannian metrics on density operators.

A monotone metric is fixed by its symmetric kernel c(x, y) acting on the
eigenvalue pairs of the state. Only two standard choices extend continuously
to rank-deficient states and are therefore usable along open-system
trajectories that touch the boundary of the state space:

* symmetric logarithmic derivative (SLD):  c(x, y) = 2 / (x + y)
* Wigner-Yanase (WY):                      c(x, y) = 4 / (sqrt(x) + sqrt(y))^2

On pure states both reduce to a multiple of the Fubini-Study line element,
with prefactor 1 (SLD) and sqrt(2) (WY). Metrics without a continuous
boundary extension (right-logarithmic-derivative, Bogoliubov-Kubo-Mori, ...)
are rejected at configuration time.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import MetricRejectionError

# A state is treated as pure when its second-largest eigenvalue is below this:
# about 1e4 times eigh's eigenvalue rounding on a unit-trace state, and the
# same cut as speed.RANK_TOL, below which the kernel sum drops a pair.
PURE_STATE_TOL = 1e-12

_NORM_TOL = 1e-10


class MetricKind(enum.Enum):
    SLD = "sld"
    WY = "wy"

    @property
    def epsilon(self) -> float:
        """Pure-state prefactor relative to the Fubini-Study speed."""
        return 1.0 if self is MetricKind.SLD else math.sqrt(2.0)


_NON_EXTENDABLE = {
    "rld": "right logarithmic derivative metric",
    "bkm": "Bogoliubov-Kubo-Mori metric",
}


def resolve_metric(name: str) -> MetricKind:
    """Map a config key to a metric, rejecting non-extendable choices.

    Raises ``MetricRejectionError`` for any key outside {sld, wy}; the known
    non-extendable metrics get a diagnostic naming the failure.
    """
    key = str(name).strip().lower()
    for kind in MetricKind:
        if key == kind.value:
            return kind
    if key in _NON_EXTENDABLE:
        raise MetricRejectionError(
            f"the {_NON_EXTENDABLE[key]} ('{name}') cannot be continuously "
            "extended to the boundary of the state manifold (rank-deficient "
            "states); choose 'sld' or 'wy'"
        )
    raise MetricRejectionError(
        f"unknown metric '{name}'; supported boundary-extendable metrics: sld, wy"
    )


def mc_kernel(kind: MetricKind, x, y, where=True) -> np.ndarray:
    """The kernel c(x, y) elementwise over broadcast arrays of eigenvalues.

    Unchecked; entries where ``where`` is False (the boundary pairs with
    x + y = 0, which callers must drop) are 0, from a division by infinity.
    The WY kernel is evaluated as 4 / (sqrt(x) + sqrt(y))^2 to stay
    accurate for tiny arguments.
    """
    if kind is MetricKind.SLD:
        return 2.0 / np.where(where, np.add(x, y), np.inf)
    root = np.where(where, np.sqrt(x) + np.sqrt(y), np.inf)
    return 4.0 / (root * root)


def pure_state_speed(psi: np.ndarray, psi_dot: np.ndarray, kind: MetricKind):
    """Evolution speed of a pure state from its time-derivative vector.

    Computes epsilon * || psi_dot_perp ||, the norm of the component of
    ``psi_dot`` orthogonal to ``psi``, i.e. the Fubini-Study speed scaled by
    the metric's pure-state prefactor. A stack of vectors (the last axis
    indexes the components) gives an array of speeds.
    """
    psi = np.asarray(psi, dtype=complex)
    psi_dot = np.asarray(psi_dot, dtype=complex)
    if psi.shape != psi_dot.shape:
        raise ValueError("state and derivative must have equal dimension")
    norm = np.sqrt(_inner(psi, psi).real)
    unnormalized = np.abs(norm - 1.0) > _NORM_TOL
    if unnormalized.any():
        bad = float(norm[unnormalized].flat[0]) if norm.ndim else float(norm)
        raise ValueError(f"state vector must be normalized, got |psi| = {bad:.12g}")
    squared = _inner(psi_dot, psi_dot).real - np.abs(_inner(psi, psi_dot)) ** 2
    speed = kind.epsilon * np.sqrt(np.maximum(squared, 0.0))
    return float(speed) if speed.ndim == 0 else speed


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u|v> over the last axis, for stacks of vectors."""
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]
