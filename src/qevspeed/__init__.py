"""Instantaneous speed of quantum evolution on the density-operator manifold.

The speed is measured with boundary-extendable monotone Riemannian metrics
(symmetric logarithmic derivative or Wigner-Yanase); its parameter
derivatives detect longitudinal (in time) and transverse (in the initial
conditions) dynamical speedup, for both closed precession models and
amplitude-damped open systems with a Lorentzian bath.
"""

__version__ = "0.1.0"

from .analysis import (
    Regime,
    RegionReport,
    memory_boundaries,
    memory_witness,
    regime_classify,
    region_report,
    speedup_boundaries,
    speedup_equation,
)
from .errors import (
    MetricRejectionError,
    NumericalFailure,
    RankIncreaseError,
    RootBracketError,
)
from .linalg import eigh_stack, hermitian_check, tensor
from .metrics import MetricKind, mc_kernel, pure_state_speed, resolve_metric
from .models import (
    MODEL_KEYS,
    ClosedQubitParams,
    OpenSystemParams,
    alpha_from_concurrence,
    amplitude_factor,
    amplitude_factor_dot,
    concurrence,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    open_qubit_trajectory,
    open_two_qubit_speed_analytic,
    open_two_qubit_trajectory,
    population_complement,
    population_factor,
    population_factor_dot,
    precession_trajectory,
    trajectory_from_key,
    two_qubit_closed_trajectory,
)
from .speed import (
    SpeedBatch,
    SpeedCurve,
    Trajectory,
    kernel_speeds,
    rho_dot,
    speed_at,
    speed_curve,
    speeds_at,
    speedup_measures,
    stencil_step,
)

__all__ = [
    "__version__",
    "Regime",
    "RegionReport",
    "memory_boundaries",
    "memory_witness",
    "regime_classify",
    "region_report",
    "speedup_boundaries",
    "speedup_equation",
    "MetricRejectionError",
    "NumericalFailure",
    "RankIncreaseError",
    "RootBracketError",
    "eigh_stack",
    "hermitian_check",
    "tensor",
    "MetricKind",
    "mc_kernel",
    "pure_state_speed",
    "resolve_metric",
    "MODEL_KEYS",
    "ClosedQubitParams",
    "OpenSystemParams",
    "alpha_from_concurrence",
    "amplitude_factor",
    "amplitude_factor_dot",
    "concurrence",
    "markovian_two_qubit_speed",
    "open_qubit_speed_analytic",
    "open_qubit_trajectory",
    "open_two_qubit_speed_analytic",
    "open_two_qubit_trajectory",
    "population_complement",
    "population_factor",
    "population_factor_dot",
    "precession_trajectory",
    "trajectory_from_key",
    "two_qubit_closed_trajectory",
    "SpeedBatch",
    "SpeedCurve",
    "Trajectory",
    "kernel_speeds",
    "rho_dot",
    "speed_at",
    "speed_curve",
    "speeds_at",
    "speedup_measures",
    "stencil_step",
]
