"""Command-line front end: speed curves, figure data, region reports and
speedup-detection sweeps, emitted as self-describing CSV or JSON.

Every value in the output is reproducible by calling the library directly
with the parameters echoed in the header block; the CLI only arranges grids
and serialization. Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import Regime, _region_columns, memory_witness, speedup_equation
from .errors import NumericalFailure
from .metrics import MetricKind, resolve_metric
from .models import (
    MODEL_KEYS,
    OpenSystemParams,
    alpha_from_concurrence,
    trajectory_from_key,
)
from .speed import Trajectory, speed_curve, speedup_measures, speeds_at

SWEEP_PARAMS = ("t", "alpha", "C", "Omega", "Gamma_over_gamma0")

# ``detect`` flags a speedup where dS/dxi > SLOPE_NOISE_TOL * |S|. The slope
# is a central difference over 2h >= 2e-5 (h = DEFAULT_TIME_STEP * max(1, |xi|))
# of speeds with a relative error of a few eps, so rounding alone reaches
# about 2e-11 |S| - the whole slope of a constant-speed closed model. The
# floor leaves a margin of 50.
SLOPE_NOISE_TOL = 1e-9

# Config-file key -> the JSON type its value must have. JSON true and false
# load as Python bools, which are ints too, so numbers exclude them.
_CONFIG_TYPES = {
    **dict.fromkeys(("alpha", "omega", "gamma_ratio", "tmin", "tmax", "time"), "a number"),
    **dict.fromkeys(("points", "n_max"), "an integer"),
    "markovian_limit": "true or false",
    **dict.fromkeys(("model", "metric", "sweep", "out", "format"), "a string"),
}
_JSON_TYPE_CHECKS = {
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
}
# Config-file key -> RunConfig attribute: the same name, except "format".
_CONFIG_ATTRS = {key: "fmt" if key == "format" else key for key in _CONFIG_TYPES}


class UsageError(ValueError):
    """Bad command-line or config-file input."""


@dataclass(frozen=True)
class FigureSpec:
    """Bound parameters and grid for one reproducible data set."""

    figure_id: str
    sweep: str  # the ``detect`` parameter: 't' | 'Omega' | 'C'
    model: str
    alpha: float
    gamma_ratio: float | None = None
    markovian_limit: bool = False
    fixed_time: float | None = None
    grid: tuple[float, float, int] = (1e-4, 30.0, 400)


_SQRT_HALF = 1.0 / math.sqrt(2.0)

FIGURES: dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec("fig1a", "t", "open-1q", 1.0, gamma_ratio=10.0),
        FigureSpec("fig1b", "t", "open-1q", 1.0, gamma_ratio=0.1),
        FigureSpec("fig2a", "Omega", "open-1q", 1.0, fixed_time=0.0, grid=(0.02, 3.0, 300)),
        FigureSpec("fig2b", "Omega", "open-1q", 1.0, fixed_time=1.0, grid=(0.02, 3.0, 300)),
        FigureSpec("fig2c", "Omega", "open-1q", 1.0, fixed_time=5.0, grid=(0.02, 3.0, 300)),
        FigureSpec("fig2d", "Omega", "open-1q", 1.0, fixed_time=10.0, grid=(0.02, 3.0, 300)),
        FigureSpec("fig3a", "t", "open-2q-aligned", _SQRT_HALF, gamma_ratio=10.0),
        FigureSpec("fig3b", "t", "open-2q-aligned", _SQRT_HALF, gamma_ratio=0.1),
        FigureSpec(
            "fig4a", "C", "open-2q-aligned", _SQRT_HALF,
            markovian_limit=True, fixed_time=1.0, grid=(0.005, 0.999, 200),
        ),
        FigureSpec(
            "fig4b", "C", "open-2q-aligned", _SQRT_HALF,
            markovian_limit=True, fixed_time=10.0, grid=(0.005, 0.999, 200),
        ),
    )
}


@dataclass
class RunConfig:
    command: str
    model: str | None = None
    metric: str = "sld"
    alpha: float = 1.0
    omega: float = 1.0
    gamma_ratio: float | None = None
    markovian_limit: bool = False
    tmin: float = 1e-4
    tmax: float = 10.0
    points: int | None = None  # command-specific default when unset
    time: float = 1.0
    sweep: str | None = None
    n_max: int = 1
    figure_id: str | None = None
    fmt: str = "csv"
    out: str | None = None


@dataclass
class TableResult:
    header: list[tuple[str, str]]
    columns: list[str]
    rows: np.ndarray  # float, shape (number of rows, len(columns))
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Configuration


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built once per process: building it
    costs more than parsing. Its ``commands`` maps each command name to that
    command's own parser, which sets ``command`` by default.

    ``main`` parses a command line once. One that starts with a command name
    goes to that command's parser, and what it leaves over is this parser's
    "unrecognized arguments" error, as this parser's ``parse_args`` reports
    it. This parser takes any other (``--version``, ``-h``, none, an unknown
    command, a leading ``--``). Each parse fills a fresh namespace, so nothing
    carries over from one ``main`` call to the next."""
    parser = argparse.ArgumentParser(
        prog="qevspeed",
        description="Quantum evolution speed, speedup detection and "
        "memory-region analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_common(sp: argparse.ArgumentParser, with_model: bool = True) -> None:
        if with_model:
            sp.add_argument("--model", help=f"one of: {', '.join(MODEL_KEYS)}")
            sp.add_argument("--metric", help="sld | wy (default sld)")
            sp.add_argument("--alpha", type=float, help="initial excited amplitude")
            sp.add_argument("--omega", type=float, help="closed-model level splitting")
        sp.add_argument(
            "--gamma-ratio", type=float, dest="gamma_ratio", help="Gamma / gamma0"
        )
        sp.add_argument(
            "--markovian-limit",
            action="store_const",
            const=True,
            dest="markovian_limit",
            help="take the spectral width to infinity (P_t = exp(-gamma0 t))",
        )
        sp.add_argument("--config", help="JSON file with the same keys; flags win")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("speed", help="sample S and dS/dt over a time grid")
    add_common(sp)
    sp.add_argument("--tmin", type=float)
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--points", type=int)

    sp = sub.add_parser("figure", help="emit the data behind a standard figure")
    sp.add_argument("figure_id", help=f"one of: {', '.join(sorted(FIGURES))}")
    sp.add_argument("--metric", help="sld | wy (default sld)")
    sp.add_argument("--points", type=int, help="override the default grid size")
    sp.add_argument("--config", help="JSON file with the same keys; flags win")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
    sp.add_argument("--out", help="output path (default: stdout)")

    ends = "the speedup ends are those of open-1q at alpha = 1 and of open-2q-anti"
    sp = sub.add_parser("regions", help=f"memory and speedup interval report; {ends}")
    add_common(sp, with_model=False)
    sp.add_argument("--n-max", type=int, dest="n_max", help="intervals to list")

    sp = sub.add_parser(
        "detect", help="sweep a parameter and flag dS/dxi > 0 above rounding noise"
    )
    add_common(sp)
    sp.add_argument(
        "--sweep", help="parameter sweep as <param>:<min>:<max>:<points>, "
        f"param in {{{', '.join(SWEEP_PARAMS)}}}"
    )
    sp.add_argument("--time", type=float, help="time of a transverse sweep, in units of 1/gamma0 (1/omega if closed)")

    for name, command in parser.commands.items():
        command.set_defaults(command=name)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(data) - set(_CONFIG_ATTRS)
    if unknown:
        raise UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_CONFIG_ATTRS))}"
        )
    for key, value in data.items():
        expected = _CONFIG_TYPES[key]
        if not _JSON_TYPE_CHECKS[expected](value):
            raise UsageError(
                f"config key '{key}' must be {expected}, got {json.dumps(value)}"
            )
    return data


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Resolve precedence: command-line flag, then config file, then default."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    config = RunConfig(command=args.command)
    for key, attr in _CONFIG_ATTRS.items():
        flag = getattr(args, attr, None)
        if flag is not None:
            setattr(config, attr, flag)
        elif key in file_values:
            setattr(config, attr, file_values[key])
    for key, kind in _CONFIG_TYPES.items():
        value = getattr(config, _CONFIG_ATTRS[key])
        if kind not in ("a number", "an integer") or value is None:
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int, from a flag of type int or from JSON
            digits = len(str(abs(value)))
            raise UsageError(f"{key} must fit in a float, got an integer of {digits} digits") from None
        if not finite:
            hint = "; for an infinite width use --markovian-limit" if key == "gamma_ratio" else ""
            raise UsageError(f"{key} must be a finite number, got {value}{hint}")
    if args.command == "figure":
        config.figure_id = args.figure_id
    return config


# ---------------------------------------------------------------------------
# Command implementations


def _build_trajectory(config: RunConfig, **overrides) -> Trajectory:
    """The configured model, with ``overrides`` of its parameters."""
    if config.model is None:
        raise UsageError(f"--model is required; valid keys: {', '.join(MODEL_KEYS)}")
    kwargs = dict(
        alpha=config.alpha,
        omega=config.omega,
        Gamma_over_gamma0=config.gamma_ratio,
        markovian_limit=config.markovian_limit,
    )
    kwargs.update(overrides)
    return trajectory_from_key(config.model, **kwargs)


def _open_params(config: RunConfig) -> OpenSystemParams:
    if config.markovian_limit:
        return OpenSystemParams(alpha=config.alpha, markovian_limit=True)
    if config.gamma_ratio is None:
        raise UsageError("open-system analysis needs --gamma-ratio or --markovian-limit")
    return OpenSystemParams(alpha=config.alpha, Gamma=config.gamma_ratio)


def _base_header(config: RunConfig) -> list[tuple[str, str]]:
    return [("artifact", f"qevspeed v{__version__}"), ("command", config.command)]


def _time_grid(config: RunConfig) -> np.ndarray:
    points = 200 if config.points is None else config.points
    if points < 2:
        raise UsageError(f"grid needs at least 2 points, got {points}")
    if not config.tmin < config.tmax:
        raise UsageError(f"tmin must be below tmax, got [{config.tmin}, {config.tmax}]")
    return _allocated("points", points, np.linspace, config.tmin, config.tmax, points)


def _allocated(key: str, count: int, build, *args):
    """``build(*args)``, which allocates ``count`` values; numpy's refusal of
    a count too large to allocate is a usage error that names ``key``."""
    try:
        return build(*args)
    except (ValueError, MemoryError) as exc:
        raise UsageError(f"{key} must be small enough to allocate, got {count} ({exc})") from None


def _skipped(name: str, points: np.ndarray, failures: dict) -> list[str]:
    """One ``# note`` per failed point of a batch, in grid order."""
    return [f"skipped {name}={points[i]:.12g}: {failures[i]}" for i in sorted(failures)]


def run_speed(config: RunConfig) -> TableResult:
    metric = resolve_metric(config.metric)
    traj = _build_trajectory(config)
    grid = _time_grid(config)
    if grid[0] < 0.0:
        raise UsageError("tmin must be nonnegative")
    curve = speed_curve(traj, grid, metric)

    header = _base_header(config)
    header.append(("model", config.model or ""))
    header.append(("metric", metric.value))
    for key, value in sorted(traj.params.items()):
        header.append((key, _format_value(value)))
    header.append(
        ("grid", f"tmin={config.tmin:.12g} tmax={config.tmax:.12g} points={grid.size}")
    )
    columns = ["t", "S", "dS_dt"]
    values = [grid, curve.speeds, curve.slopes]
    if traj.speed_at_zero is not None and 0.0 < traj.speed_at_zero < math.inf:
        columns.append("S_over_S0")
        values.append(curve.speeds / traj.speed_at_zero)
    return TableResult(header, columns, _rows(*values), _skipped("t", grid, curve.failures))


def run_figure(config: RunConfig) -> TableResult:
    if config.figure_id not in FIGURES:
        raise UsageError(
            f"unknown figure '{config.figure_id}'; "
            f"valid ids: {', '.join(sorted(FIGURES))}"
        )
    spec = FIGURES[config.figure_id]
    name = spec.sweep  # every figure is the ``detect`` sweep of its model
    metric = resolve_metric(config.metric)
    lo, hi, default_points = spec.grid
    points = default_points if config.points is None else config.points
    if points < 2:
        raise UsageError(f"grid needs at least 2 points, got {points}")
    grid = _allocated("points", points, np.linspace, lo, hi, points)

    header = _base_header(config)
    header.append(("figure", spec.figure_id))
    header.append(("model", spec.model))
    header.append(("metric", metric.value))
    if name != "C":  # a C sweep runs at alpha_from_concurrence(C), as in detect
        header.append(("alpha", _format_value(spec.alpha)))
    if spec.markovian_limit:
        header.append(("markovian_limit", "true"))
    if spec.gamma_ratio is not None:
        header.append(("Gamma_over_gamma0", _format_value(spec.gamma_ratio)))
    if spec.fixed_time is not None:
        header.append(("gamma0_t", _format_value(spec.fixed_time)))
    header.append(("grid", f"min={lo:.12g} max={hi:.12g} points={points}"))

    sweep_config = RunConfig(
        command="figure",
        model=spec.model,
        alpha=spec.alpha,
        gamma_ratio=spec.gamma_ratio,
        markovian_limit=spec.markovian_limit,
    )
    if spec.fixed_time is not None:  # a transverse sweep's time
        sweep_config.time = spec.fixed_time
    evaluate, _ = _sweep_evaluator(sweep_config, name, metric)
    speeds, slopes, failures = speedup_measures(evaluate, grid)
    notes = _skipped(name, grid, failures)
    if name == "C":
        return TableResult(header, ["C", "S_over_gamma0", "dS_dC_over_gamma0"], _rows(grid, speeds, slopes), notes)
    if name == "Omega":
        rows = _rows(grid, speeds, slopes, (grid < 0.5).astype(float))
        return TableResult(header, ["Omega", "S", "dS_dOmega", "markovian_band"], rows, notes)
    s0 = float(evaluate(0.0).speeds)  # the trajectory's t = 0 limit
    columns = ["t", "S_over_S0"]
    values = [grid, speeds / s0]
    if spec.model == "open-1q":
        witness_params = OpenSystemParams(alpha=spec.alpha, Gamma=spec.gamma_ratio)
        columns.append("sqrt_P")
        values.append(memory_witness(witness_params, grid))
    columns.append("dS_dt_over_S0")
    values.append(slopes / s0)
    return TableResult(header, columns, _rows(*values), notes)


def _rows(*columns: np.ndarray) -> np.ndarray:
    return np.column_stack(columns)


def run_regions(config: RunConfig) -> TableResult:
    if config.n_max < 0:
        raise UsageError(f"--n-max must be nonnegative, got {config.n_max}")
    params = _open_params(config)
    regime, tau, tau_prime, tau_dprime = _allocated("n_max", config.n_max, _region_columns, params, config.n_max)

    header = _base_header(config)
    if params.markovian_limit:
        header.append(("markovian_limit", "true"))
    else:
        header.append(("Gamma_over_gamma0", _format_value(params.Gamma)))
    header.append(("regime", regime.value))
    header.append(("n_max", str(config.n_max)))

    columns = ["n", "tau_n", "tau_n_prime", "tau_n_dprime", "residual"]
    # no intervals outside the non-Markovian regime, and no residual to take
    residual = speedup_equation(params, tau_dprime) if tau_dprime.size else tau_dprime
    rows = _rows(np.arange(1.0, tau.size + 1.0), tau, tau_prime, tau_dprime, residual)
    notes = []
    if regime is not Regime.NON_MARKOVIAN:
        notes.append(f"{regime.value} regime: no memory or speedup intervals")
    return TableResult(header, columns, rows, notes)


def _parse_sweep(sweep: str | None) -> tuple[str, float, float, int]:
    if not sweep:
        raise UsageError("detect needs --sweep <param>:<min>:<max>:<points>")
    parts = sweep.split(":")
    if len(parts) != 4:
        raise UsageError(f"malformed sweep '{sweep}'; expected <param>:<min>:<max>:<points>")
    name, lo_s, hi_s, n_s = parts
    if name not in SWEEP_PARAMS:
        raise UsageError(
            f"unknown sweep parameter '{name}'; valid: {', '.join(SWEEP_PARAMS)}"
        )
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise UsageError(f"malformed sweep '{sweep}': {exc}") from exc
    if n < 2:
        raise UsageError(f"sweep needs at least 2 points, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"sweep bounds must be finite numbers, got [{lo}, {hi}]")
    if not lo < hi:
        raise UsageError(f"sweep min must be below max, got [{lo}, {hi}]")
    return name, lo, hi, n


def _inside(points: np.ndarray, ok: np.ndarray, message: str) -> None:
    """UsageError naming the first stencil point that fails ``ok``, in the
    order xi, xi + h, xi - h of each row in turn."""
    if not ok.all():
        raise UsageError(message.format(points.T[~ok.T][0]))


def _sweep_evaluator(config: RunConfig, name: str, metric: MetricKind):
    """Batched speed as a function of the swept parameter, all else fixed."""
    t_eval = config.time
    margin = 2e-4  # room for the central-difference probes

    if name == "t":
        traj = _build_trajectory(config)
        return (lambda times: speeds_at(traj, times, metric)), "longitudinal"

    if name == "C" and "-2q-" not in (config.model or ""):
        raise UsageError(f"concurrence sweep needs a two-qubit model, got '{config.model}'")
    if name in ("alpha", "C"):

        def evaluate(values: np.ndarray):
            _inside(
                values,
                (values >= 0.0) & (values <= 1.0),
                f"{name} sweep left [0, 1] at {{:.6g}}; keep the grid inside "
                f"[{margin}, {1 - margin}]",
            )
            alphas = values if name == "alpha" else alpha_from_concurrence(values)
            return speeds_at(_build_trajectory(config, alpha=alphas), t_eval, metric)

        return evaluate, "transverse"

    if config.model is None or config.model.startswith("closed"):
        raise UsageError(f"sweep '{name}' needs an open-system model, got '{config.model}'")
    if config.markovian_limit:
        raise UsageError(
            f"sweep '{name}' varies the spectral width; drop --markovian-limit"
        )
    label = "Omega" if name == "Omega" else "Gamma/gamma0"

    def evaluate(values: np.ndarray):
        _inside(values, values > 0.0, f"{label} must stay positive, got {{:.6g}}")
        ratios = 1.0 / values if name == "Omega" else values
        return speeds_at(_build_trajectory(config, Gamma_over_gamma0=ratios), t_eval, metric)

    return evaluate, "transverse"


def run_detect(config: RunConfig) -> TableResult:
    metric = resolve_metric(config.metric)
    name, lo, hi, n = _parse_sweep(config.sweep)
    evaluate, classification = _sweep_evaluator(config, name, metric)
    grid = _allocated("sweep points", n, np.linspace, lo, hi, n)

    header = _base_header(config)
    header.append(("model", config.model or ""))
    header.append(("metric", metric.value))
    header.append(("classification", classification))
    header.append(("sweep", f"{name}:{lo:.12g}:{hi:.12g}:{n}"))
    closed = (config.model or "").startswith("closed")  # precesses at omega, with no bath
    at = ("t", lo) if name == "t" else ("omega_t" if closed else "gamma0_t", config.time)  # 1/omega if closed
    if name != "t":
        header.append((at[0], _format_value(at[1])))
    if closed:
        header.append(("omega", _format_value(config.omega)))
    elif config.markovian_limit:
        header.append(("markovian_limit", "true"))
    elif config.gamma_ratio is not None and name not in ("Omega", "Gamma_over_gamma0"):
        header.append(("Gamma_over_gamma0", _format_value(config.gamma_ratio)))
    if name not in ("alpha", "C"):  # a C sweep runs at alpha_from_concurrence(C)
        header.append(("alpha", _format_value(config.alpha)))

    speeds, slopes, failures = speedup_measures(evaluate, grid)
    flags = (slopes > SLOPE_NOISE_TOL * np.abs(speeds)).astype(float)
    flags[np.isnan(slopes)] = math.nan  # failed rows, and divergent speeds
    notes = _skipped(name, grid, failures)
    if np.isinf(speeds).any():  # only at time 0, the first point of a t sweep; a failed row's speed is nan
        notes.append(f"slope undefined: S diverges at {at[0]} = {_format_value(at[1])}")
    return TableResult(header, [name, "S", f"dS_d{name}", "speedup"], _rows(grid, speeds, slopes, flags), notes)


# ---------------------------------------------------------------------------
# Serialization


# Every table value is printed as "%.12g", the bytes of f"{v:.12g}" also for
# nan, inf and -0. A table formats its values with one "%" operation: a bytes
# template with one cell per value, applied to the flat tuple of the values
# in row order and decoded once (bytes % formats as str % does, faster).


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(result: TableResult) -> str:
    lines = [f"# {key}: {value}" for key, value in result.header]
    lines.extend(f"# note: {note}" for note in result.notes)
    lines.append(",".join(result.columns))
    row = (",".join(["%.12g"] * len(result.columns)) + "\n").encode()
    return "\n".join(lines) + "\n" + ((row * len(result.rows)) % tuple(result.rows.ravel().tolist())).decode()


_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A JSON cell's format by its kind: the %.12g text, a whole number's "%.1f",
# and the spelling of any other respelled value, made beforehand
_JSON_SPECS = (b"%.12g", b"%.1f", b"%s")


def _json_block(brackets: str, items) -> str:
    """An object or array one level deep, as ``json.dumps(indent=2)`` lays it out."""
    inner = ",\n    ".join(items)
    return f"{brackets[0]}\n    {inner}\n  {brackets[1]}" if inner else brackets


def render_json(result: TableResult) -> str:
    """The ``json.dumps(..., indent=2)`` text of config, columns, rows and
    notes, with each row value rounded to its 12 printed digits: the
    encoder's spelling of the float its CSV text reads back as.

    A decimal of at most 12 significant digits reads back to a double whose
    repr has those digits, so the %.12g text is already the encoder's
    spelling except for integral values ("3" for 3.0), |x| in [1e12, 1e16)
    (an exponent in %g, none in repr), subnormals (more digits than they
    hold) and nan/inf (NaN, Infinity, -Infinity). A mask selects a superset
    of those cells, each value within 1e-11 relative of an integer (so every
    |x| >= 5e10), each subnormal and each non-finite value, and only they
    are respelled: "%.1f" spells a whole number below 1e12 (at most 12
    digits, and "-0.0" for -0, as repr), and any other is spelled alone.
    The rows are then one bytes template, formatted as in ``render_csv``.
    """
    rows = "[]"
    if len(result.rows):
        x = result.rows.ravel()
        values = x.tolist()
        scale, nearest = np.abs(x), np.rint(x)
        with np.errstate(invalid="ignore"):  # inf - inf
            odd = ~(np.abs(x - nearest) > 1e-11 * scale) | (scale < sys.float_info.min)
        respelled = odd & ~((x == nearest) & (scale < 1e12))
        for i in np.flatnonzero(respelled).tolist():
            cell = "%.12g" % values[i]
            values[i] = (_JSON_SPELLING.get(cell) or repr(float(cell))).encode()
        kinds = (odd.view(np.int8) + respelled).reshape(result.rows.shape)
        keys = kinds.view(f"V{kinds.shape[1]}").ravel().tolist()  # a row's kinds, as bytes
        templates = {key: b",\n      ".join([_JSON_SPECS[kind] for kind in key]) for key in set(keys)}
        body = b"\n    ],\n    [\n      ".join([templates[key] for key in keys])
        rows = ((b"[\n    [\n      " + body + b"\n    ]\n  ]") % tuple(values)).decode()
    string = json.encoder.encode_basestring_ascii  # the encoder's own, under ensure_ascii
    config = _json_block("{}", [f"{string(key)}: {string(value)}" for key, value in dict(result.header).items()])
    columns, notes = (_json_block("[]", map(string, items)) for items in (result.columns, result.notes))
    return f'{{\n  "config": {config},\n  "columns": {columns},\n  "rows": {rows},\n  "notes": {notes}\n}}\n'


_RUNNERS = {
    "speed": run_speed,
    "figure": run_figure,
    "regions": run_regions,
    "detect": run_detect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = merge_config(args)
        if config.fmt not in ("csv", "json"):
            raise UsageError(f"unknown format '{config.fmt}'; use csv or json")
        result = _RUNNERS[config.command](config)
    except ValueError as exc:  # usage errors and rejected metrics alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    text = render_csv(result) if config.fmt == "csv" else render_json(result)
    if not config.out:
        sys.stdout.write(text)
        return 0
    try:
        Path(config.out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
