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
)
from . import linalg  # noqa: F401  loaded with the package, as bench/tracer.py traces every layer module by name
from .metrics import MetricKind, resolve_metric
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
    speed_sweep,
    trajectory_from_key,
)
from .speed import (
    SpeedCurve,
    Trajectory,
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
    "MetricKind",
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
    "speed_sweep",
    "trajectory_from_key",
    "SpeedCurve",
    "Trajectory",
    "speed_at",
    "speed_curve",
    "speeds_at",
    "speedup_measures",
    "stencil_step",
]
