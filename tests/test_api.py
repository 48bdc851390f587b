"""The public names of the package, pinned: adding, removing or renaming one
changes this file too, so every change to the public API shows in a diff."""

import qevspeed

PUBLIC_NAMES = (
    "__version__",
    # analysis
    "Regime",
    "RegionReport",
    "memory_boundaries",
    "memory_witness",
    "regime_classify",
    "region_report",
    "speedup_boundaries",
    "speedup_equation",
    # errors
    "MetricRejectionError",
    "NumericalFailure",
    "RankIncreaseError",
    # linalg
    "eigh_stack",
    # metrics
    "MetricKind",
    "mc_kernel",
    "resolve_metric",
    # models: trajectory_from_key is the one way to build a model
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
    # speed
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
)


def test_public_names_are_pinned():
    assert tuple(qevspeed.__all__) == PUBLIC_NAMES
