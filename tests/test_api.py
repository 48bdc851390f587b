"""The public names of the package, pinned: adding, removing or renaming one
changes this file too, so every change to the public API shows in a diff.
So is what the benchmark under ``bench/`` reads from the package."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

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
    # metrics
    "MetricKind",
    "resolve_metric",
    # models: trajectory_from_key is the one way to build a model, and speed_sweep to sweep one
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
    # speed
    "SpeedCurve",
    "Trajectory",
    "speed_at",
    "speed_curve",
    "speeds_at",
    "speedup_measures",
    "stencil_step",
)


def test_public_names_are_pinned():
    assert tuple(qevspeed.__all__) == PUBLIC_NAMES


def test_what_the_benchmark_reads_is_still_there(monkeypatch):
    """``bench/tracer.py`` wraps the functions of every module in its
    ``LAYERS`` from ``sys.modules``, and replaces ``state_at`` and
    ``derivative_at`` on each ``Trajectory``; its route counts read
    ``dim`` and ``speed_at_zero``. ``bench/run.py`` catches
    ``NumericalFailure``. ``LAYERS`` is read from the source, so nothing
    under ``bench/`` is imported, and the package is imported afresh, so
    no other test's imports count."""
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    (layers,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"]
    )
    for name in [name for name in sys.modules if name.partition(".")[0] == "qevspeed"]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("qevspeed")
    importlib.import_module("qevspeed.cli")
    assert sorted({f"qevspeed.{layer}" for layer in layers} - set(sys.modules)) == []
    fields = {f.name for f in dataclasses.fields(fresh.Trajectory)}
    assert {"state_at", "derivative_at", "dim", "speed_at_zero"} <= fields
    assert issubclass(fresh.errors.NumericalFailure, Exception)
