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

from .errors import MetricRejectionError


class MetricKind(enum.Enum):
    SLD = "sld"
    WY = "wy"


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

