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
)
from .linalg import eigh_stack
from .metrics import MetricKind, mc_kernel, resolve_metric
from .models import (
    MODEL_KEYS,
    OpenSystemParams,
    alpha_from_concurrence,
    amplitude_factor,
    amplitude_factor_dot,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_complement,
    population_factor,
    population_factor_dot,
    trajectory_from_key,
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
    "eigh_stack",
    "MetricKind",
    "mc_kernel",
    "resolve_metric",
    "MODEL_KEYS",
    "OpenSystemParams",
    "alpha_from_concurrence",
    "amplitude_factor",
    "amplitude_factor_dot",
    "markovian_two_qubit_speed",
    "open_qubit_speed_analytic",
    "open_two_qubit_speed_analytic",
    "population_complement",
    "population_factor",
    "population_factor_dot",
    "trajectory_from_key",
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
