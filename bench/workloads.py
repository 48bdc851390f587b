"""Seeded inputs, operations and output checks for the benchmark workloads.

Three workloads, each a closed loop with one caller on one thread:

* ``curves``: every ``figure`` id at its default grid, under both metrics,
  plus the ``speed`` command on each model and metric, through ``cli.main``
  in CSV.
* ``sweeps``: ``detect`` over every sweep parameter on three models, plus
  ``regions`` with ``n_max`` in the hundreds; about half in JSON. Two valid
  time sweeps that exit 2 today ride along as known-defect probes.
* ``points``: scalar ``speed_at`` calls at interior and boundary points.

Sizes and the model/metric/format of each slot are fixed; the seed draws the
numbers (amplitudes, bath widths, times). So a seed changes the inputs but
hardly the amount of work, which keeps the timings comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

import qevspeed.cli
import qevspeed.models
from qevspeed.analysis import memory_boundaries
from qevspeed.models import (
    MODEL_KEYS,
    OpenSystemParams,
    alpha_from_concurrence,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    open_two_qubit_speed_analytic,
    population_factor,
)

WORKLOADS = ("curves", "sweeps", "points")

# A checked value misses when its relative error against the closed form
# exceeds this; it is the tolerance of the acceptance suite.
CLOSED_FORM_TOL = 1e-6

# Open-model values are gated only where the acceptance suite asserts
# agreement: 1e-3 < P_t < 1 - 1e-3. Elsewhere misses are counted, not gated.
INTERIOR_POP = 1e-3

# min_digits when every checked value matches its closed form exactly.
MAX_DIGITS = 16.0

# Default grids of the figure ids: (columns, rows).
FIGURE_TABLES = {
    "fig1a": (["t", "S_over_S0", "sqrt_P", "dS_dt_over_S0"], 400),
    "fig1b": (["t", "S_over_S0", "sqrt_P", "dS_dt_over_S0"], 400),
    "fig2a": (["Omega", "S", "dS_dOmega", "markovian_band"], 300),
    "fig2b": (["Omega", "S", "dS_dOmega", "markovian_band"], 300),
    "fig2c": (["Omega", "S", "dS_dOmega", "markovian_band"], 300),
    "fig2d": (["Omega", "S", "dS_dOmega", "markovian_band"], 300),
    "fig3a": (["t", "S_over_S0", "dS_dt_over_S0"], 400),
    "fig3b": (["t", "S_over_S0", "dS_dt_over_S0"], 400),
    "fig4a": (["C", "S_over_gamma0", "dS_dC_over_gamma0"], 200),
    "fig4b": (["C", "S_over_gamma0", "dS_dC_over_gamma0"], 200),
}

# Parameters the figure ids are bound to: (model, alpha, Gamma/gamma0, fixed t).
FIGURE_PARAMS = {
    "fig1a": ("open-1q", 1.0, 10.0, None),
    "fig1b": ("open-1q", 1.0, 0.1, None),
    "fig2a": ("open-1q", 1.0, None, 0.0),
    "fig2b": ("open-1q", 1.0, None, 1.0),
    "fig2c": ("open-1q", 1.0, None, 5.0),
    "fig2d": ("open-1q", 1.0, None, 10.0),
    "fig3a": ("open-2q-aligned", 1.0 / math.sqrt(2.0), 10.0, None),
    "fig3b": ("open-2q-aligned", 1.0 / math.sqrt(2.0), 0.1, None),
}

SPEED_POINTS = 200  # default grid of the ``speed`` command
SWEEP_POINTS = 30
# ``points`` per pass: interior points per model, then BOUNDARY_EACH points
# per boundary category (tau_n, the Gamma/gamma0 = 10 tail, Gamma = 2 gamma0,
# the Markovian limit) for each open model with a closed form, and
# BOUNDARY_EACH // 3 at t = 0 per model.
INTERIOR_MIX = {
    "closed-1q": 50,
    "closed-2q-aligned": 50,
    "closed-2q-anti": 40,
    "open-1q": 60,
    "open-2q-aligned": 50,
    "open-2q-anti": 30,
}
BOUNDARY_EACH = 12


@dataclass(frozen=True)
class Case:
    """Model parameters a value was computed at, for the closed-form check."""

    model: str
    metric: str
    alpha: float
    omega: float = 1.0
    ratio: float | None = None
    markovian: bool = False
    concurrence: float | None = None


@dataclass(frozen=True)
class Command:
    """One CLI operation and what its output must look like.

    ``probe`` marks a valid input that fails today (a known defect): it runs
    in every pass and its failure counts in failed_share, but it is not a
    timed operation and it is not gated.
    """

    argv: tuple[str, ...]
    columns: tuple[str, ...]
    rows: int
    case: Case | None = None
    sweep: str | None = None
    fixed_t: float | None = None
    probe: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Point:
    """One scalar ``speed_at`` evaluation."""

    case: Case
    t: float
    category: str


@dataclass
class Accuracy:
    """Closed-form comparison of the values a pass produced."""

    checked: int = 0
    misses: int = 0
    gated_misses: list[str] = field(default_factory=list)
    worst: float = 0.0
    worst_by_category: dict[str, float] = field(default_factory=dict)

    def add(self, value: float, ref: float | None, interior: bool, category: str, where: str):
        if ref is None:
            return
        err = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
        self.checked += 1
        self.worst = max(self.worst, err)
        self.worst_by_category[category] = max(self.worst_by_category.get(category, 0.0), err)
        if err > CLOSED_FORM_TOL:
            self.misses += 1
            if interior:
                self.gated_misses.append(f"{where}: rel err {err:.3e}")

    @property
    def min_digits(self) -> float:
        if self.worst == 0.0:
            return MAX_DIGITS
        return min(MAX_DIGITS, 0.0 - math.log10(self.worst))


# ---------------------------------------------------------------------------
# Closed forms


def open_params(case: Case) -> OpenSystemParams:
    if case.markovian:
        return OpenSystemParams(alpha=case.alpha, markovian_limit=True)
    return OpenSystemParams(alpha=case.alpha, Gamma=case.ratio)


def closed_form(case: Case, t: float) -> float | None:
    """Reference speed where the library has a closed form, else None."""
    wy = case.metric == "wy"
    if case.model.startswith("closed"):
        beta = math.sqrt(1.0 - case.alpha * case.alpha)
        speed = {"closed-1q": 1.0, "closed-2q-aligned": 2.0, "closed-2q-anti": 0.0}[case.model]
        speed *= case.alpha * beta * case.omega
        return math.sqrt(2.0) * speed if wy else speed
    if wy or case.model == "open-2q-anti" or (case.markovian and t == 0.0):
        return None
    if case.concurrence is not None:
        return markovian_two_qubit_speed(case.concurrence, t)
    params = open_params(case)
    if case.model == "open-1q":
        return open_qubit_speed_analytic(params, t)
    return open_two_qubit_speed_analytic(params, t)


def is_interior(case: Case, t: float) -> bool:
    """Where the acceptance suite asserts agreement with the closed form."""
    if case.model.startswith("closed"):
        return True
    pop = population_factor(open_params(case), t)
    return INTERIOR_POP < pop < 1.0 - INTERIOR_POP


# ---------------------------------------------------------------------------
# Input generation


def _ratio(rng: np.random.Generator, side: str) -> float:
    """Gamma/gamma0 below (memory) or above (memoryless) the critical 2."""
    return float(rng.uniform(0.05, 1.9) if side == "below" else rng.uniform(2.1, 20.0))


def _bath_args(case: Case) -> list[str]:
    if case.model.startswith("closed"):
        return []
    if case.markovian:
        return ["--markovian-limit"]
    return [] if case.ratio is None else ["--gamma-ratio", repr(case.ratio)]


def curves_inputs(seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 1])
    # Every figure under both metrics, except the Markovian concurrence
    # sweeps, which are closed forms and take no metric.
    commands = []
    for fid, (cols, rows) in FIGURE_TABLES.items():
        commands.append(Command(("figure", fid), tuple(cols), rows))
        if fid not in ("fig4a", "fig4b"):
            commands.append(Command(("figure", fid, "--metric", "wy"), tuple(cols), rows))
    for model in MODEL_KEYS:
        baths = ("closed",) if model.startswith("closed") else ("below", "above", "markovian")
        for bath in baths:
            for metric in ("sld", "wy"):
                alpha = float(rng.uniform(0.05, 0.98))
                argv = ["speed", "--model", model, "--metric", metric, "--alpha", repr(alpha)]
                if bath == "closed":
                    case = Case(model, metric, alpha, omega=float(rng.uniform(0.5, 2.0)))
                    argv += ["--omega", repr(case.omega)]
                else:
                    ratio = None if bath == "markovian" else _ratio(rng, bath)
                    case = Case(model, metric, alpha, ratio=ratio, markovian=bath == "markovian")
                columns = ["t", "S", "dS_dt"]
                if case.ratio is not None:
                    columns.append("S_over_S0")
                argv += _bath_args(case)
                commands.append(Command(tuple(argv), tuple(columns), SPEED_POINTS, case))
    return commands


# (model, swept parameter) pairs the ``detect`` command accepts.
DETECT_SLOTS = (
    ("open-1q", "t"),
    ("open-1q", "alpha"),
    ("open-1q", "Omega"),
    ("open-1q", "Gamma_over_gamma0"),
    ("open-2q-aligned", "t"),
    ("open-2q-aligned", "alpha"),
    ("open-2q-aligned", "C"),
    ("open-2q-aligned", "Omega"),
    ("open-2q-aligned", "Gamma_over_gamma0"),
    ("closed-2q-aligned", "t"),
    ("closed-2q-aligned", "alpha"),
    ("closed-2q-aligned", "C"),
)
SWEEP_RANGES = {
    "alpha": (0.05, 0.95),
    "C": (0.05, 0.95),
    "Omega": (0.05, 3.0),
    "Gamma_over_gamma0": (0.05, 12.0),
}
REGIONS_N_MAX = (100, 200, 300)


def sweeps_inputs(seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 2])
    commands = []
    for slot, (model, name) in enumerate(DETECT_SLOTS):
        metric = ("sld", "wy")[slot % 2]
        alpha = float(rng.uniform(0.2, 0.95))
        ratio, markovian = None, False
        if model.startswith("open") and name not in ("Omega", "Gamma_over_gamma0"):
            side = ("below", "above", "markovian")[slot % 3]
            markovian = side == "markovian"
            ratio = None if markovian else _ratio(rng, side)
        case = Case(model, metric, alpha, ratio=ratio, markovian=markovian)
        argv = ["detect", "--model", model, "--metric", metric, "--alpha", repr(alpha)]
        argv += _bath_args(case)
        fixed_t = None
        if name == "t":
            lo, hi = float(rng.uniform(0.05, 1.0)), float(rng.uniform(8.0, 30.0))
        else:
            lo, hi = SWEEP_RANGES[name]
            fixed_t = float(rng.uniform(0.5, 8.0))
            argv += ["--time", repr(fixed_t)]
        argv += ["--sweep", f"{name}:{lo!r}:{hi!r}:{SWEEP_POINTS}"]
        if slot // 2 % 2:
            argv += ["--format", "json"]
        columns = (name, "S", f"dS_d{name}", "speedup")
        commands.append(Command(tuple(argv), columns, SWEEP_POINTS, case, name, fixed_t))
    for slot, n_max in enumerate(REGIONS_N_MAX):
        argv = ["regions", "--gamma-ratio", repr(_ratio(rng, "below")), "--n-max", str(n_max)]
        if slot % 2 == 0:
            argv += ["--format", "json"]
        columns = ("n", "tau_n", "tau_n_prime", "tau_n_dprime", "residual")
        commands.append(Command(tuple(argv), columns, n_max))
    # Valid time sweeps that exit 2 today: one starts at t = 0 (the slope
    # stencil probes t < 0), one runs past the default horizon of 50.
    for sweep in (f"t:0:{float(rng.uniform(5.0, 20.0))!r}:{SWEEP_POINTS}", f"t:1:60:{SWEEP_POINTS}"):
        case = Case("open-1q", "sld", float(rng.uniform(0.2, 0.95)), ratio=_ratio(rng, "below"))
        argv = ("detect", "--model", "open-1q", "--alpha", repr(case.alpha)) + tuple(
            _bath_args(case)
        ) + ("--sweep", sweep)
        columns = ("t", "S", "dS_dt", "speedup")
        commands.append(Command(argv, columns, SWEEP_POINTS, case, "t", probe=True))
    return commands


def points_inputs(seed: int) -> list[Point]:
    """400 points in a fixed mix of models and categories.

    The mix is fixed so that the latency distribution has the same shape for
    every seed: a quarter to a third of the points are two-qubit kernel sums
    (the slow cluster), the rest mostly one-qubit or pure-state evaluations.
    """
    rng = np.random.default_rng([seed, 3])
    points = []
    seen: dict[str, int] = {}

    def add(category: str, model: str, t, **kwargs) -> None:
        # metrics alternate within each (category, model), half each
        key = f"{category} {model}"
        seen[key] = seen.get(key, 0) + 1
        metric = ("sld", "wy")[seen[key] % 2]
        alpha = kwargs.pop("alpha", None)
        if alpha is None:
            alpha = float(rng.uniform(0.2, 0.98))
        case = Case(model, metric, alpha, **kwargs)
        points.append(Point(case, float(t(case)) if callable(t) else float(t), category))

    def tau_n(case: Case) -> float:
        n = int(rng.integers(1, 4))
        return memory_boundaries(open_params(case), n)[n - 1][0]

    for model, count in INTERIOR_MIX.items():
        for _ in range(count):
            side = ("below", "above")[len(points) // 2 % 2]
            add("interior", model, rng.uniform(0.05, 10.0), omega=float(rng.uniform(0.5, 2.0)), ratio=_ratio(rng, side))
    for model in ("open-1q", "open-2q-aligned"):
        for _ in range(BOUNDARY_EACH):
            add("tau_n", model, tau_n, ratio=float(rng.uniform(0.2, 1.5)))
            add("tail", model, rng.uniform(26.0, 50.0), ratio=10.0)
            add("critical", model, rng.uniform(0.05, 10.0), ratio=2.0)
            if model == "open-1q":
                add("markovian", model, rng.uniform(0.05, 10.0), markovian=True)
            else:
                c = float(rng.uniform(0.05, 0.99))
                add("markovian", model, rng.uniform(0.05, 10.0), alpha=alpha_from_concurrence(c), markovian=True, concurrence=c)
    for model in MODEL_KEYS:
        for _ in range(BOUNDARY_EACH // 3):
            add("t0", model, 0.0, omega=float(rng.uniform(0.5, 2.0)), ratio=_ratio(rng, "below"))
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def generate(workload: str, seed: int) -> list:
    return {"curves": curves_inputs, "sweeps": sweeps_inputs, "points": points_inputs}[workload](seed)


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Outcome:
    """What one CLI operation returned; ``rows`` is set by the check."""

    code: int
    text: str
    error: str = ""
    rows: int = 0


def run_command(command: Command) -> tuple[int, str, str]:
    """``cli.main`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qevspeed.cli.main(list(command.argv))
    return code, out.getvalue(), err.getvalue()


def trajectory(case: Case):
    kwargs = {"alpha": case.alpha, "omega": case.omega}
    if case.markovian:
        kwargs["markovian_limit"] = True
    elif not case.model.startswith("closed"):
        kwargs["Gamma_over_gamma0"] = case.ratio
    return qevspeed.models.trajectory_from_key(case.model, **kwargs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def points_text(points: list[Point], values: list[float]) -> str:
    """Evaluated points at the 12 significant digits the CLI prints."""
    lines = ["model,metric,alpha,omega,Gamma_over_gamma0,markovian,t,S"]
    for point, value in zip(points, values):
        c = point.case
        ratio = "" if c.ratio is None else f"{c.ratio:.12g}"
        lines.append(
            f"{c.model},{c.metric},{c.alpha:.12g},{c.omega:.12g},{ratio},"
            f"{int(c.markovian)},{point.t:.12g},{value:.12g}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output parsing and checks


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[float]]]:
    if fmt == "json":
        payload = json.loads(text)
        return list(payload["columns"]), [[float(v) for v in row] for row in payload["rows"]]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return columns, [[float(v) for v in line.split(",")] for line in lines[1:]]


def _row_case(command: Command, row: list[float]) -> tuple[Case, float]:
    """Parameters and time of one ``speed``/``detect`` row."""
    case, xi = command.case, row[0]
    if command.sweep in (None, "t"):
        return case, xi
    if command.sweep == "alpha":
        case = replace(case, alpha=xi)
    elif command.sweep == "C":
        case = replace(case, alpha=alpha_from_concurrence(xi))
    else:
        case = replace(case, ratio=1.0 / xi if command.sweep == "Omega" else xi)
    return case, command.fixed_t


def _figure_values(argv: tuple[str, ...], rows: list[list[float]]):
    """(case, t, S) for the figure rows that have a closed form."""
    fid, metric = argv[1], "wy" if "wy" in argv else "sld"
    if fid not in FIGURE_PARAMS or metric != "sld":
        return
    model, alpha, ratio, fixed_t = FIGURE_PARAMS[fid]
    if fixed_t is None:
        case = Case(model, metric, alpha, ratio=ratio)
        s0 = closed_form(case, 0.0)
        for row in rows:
            yield case, row[0], row[1] * s0
    else:
        for row in rows:
            yield Case(model, metric, alpha, ratio=1.0 / row[0]), fixed_t, row[1]


# The library bisects the speedup-end root to |residual| <= 1e-10; the CLI
# prints the residual at 12 significant digits.
RESIDUAL_TOL = 1e-9


def check_command(command: Command, outcome: Outcome, accuracy: Accuracy) -> list[str]:
    """Set ``outcome.rows`` and return the gated problems."""
    problems = []
    if outcome.code != 0:
        return [f"{command.label}: exit {outcome.code}: {outcome.error.strip()}"]
    fmt = "json" if "json" in command.argv else "csv"
    columns, rows = parse_table(outcome.text, fmt)
    outcome.rows = len(rows)
    if tuple(columns) != command.columns:
        problems.append(f"{command.label}: columns {columns}, expected {list(command.columns)}")
    if len(rows) != command.rows:
        problems.append(f"{command.label}: {len(rows)} rows, expected {command.rows}")
    if command.argv[0] == "regions":
        bad = [row[4] for row in rows if not abs(row[4]) <= RESIDUAL_TOL]
        if bad:
            problems.append(f"{command.label}: speedup-equation residual {bad[0]:.3e}")
        return problems
    if any(math.isnan(row[1]) for row in rows):
        problems.append(f"{command.label}: nan rows")
    if command.argv[0] == "figure":
        checked = _figure_values(command.argv, rows)
    else:
        checked = (_row_case(command, row) + (row[1],) for row in rows)
    for case, t, value in checked:
        interior = is_interior(case, t)
        accuracy.add(value, closed_form(case, t), interior, command.argv[0], f"{command.label} t={t:.6g}")
    return problems


def check_point(point: Point, value: float, accuracy: Accuracy) -> None:
    case, t = point.case, point.t
    interior = point.category == "interior" and is_interior(case, t)
    accuracy.add(value, closed_form(case, t), interior, point.category, f"{case} t={t!r}")
