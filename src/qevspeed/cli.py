"""Command-line front end: speed curves, figure data, region reports and
speedup-detection sweeps, emitted as self-describing CSV or JSON.

Every value in the output is reproducible by calling the library directly
with the parameters echoed in the header block; the CLI only arranges grids
and serialization. ``speed``, ``figure`` and ``detect`` are column
projections of one sweep, the library's ``speed_sweep``: a parameter's
grid, checked against the parameter's domain, and its speeds and slopes
from one batch. ``speed`` is the t sweep, and a figure its
``FigureSpec``'s bound sweep.

Each option is declared once, as a ``RunConfig`` field: the parser's
flags, the config file's keys and kinds, and ``merge_config``'s precedence
(flag, then config file, then default) come from it. Exit codes: 0
success, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import Regime, _region_columns, memory_witness, speedup_equation
from .metrics import MetricKind, resolve_metric
from .models import MODEL_KEYS, SWEEP_PARAMS, OpenSystemParams, SpeedSweep, speed_sweep
from .speed import speed_at

# ``detect`` flags a speedup where dS/dxi > SLOPE_NOISE_TOL * |S|. A slope is a difference of rounded speeds over a
# stencil of half-width h = DEFAULT_TIME_STEP * max(1, |xi|): central, (1, 1) / 2h, or at a domain end one-sided,
# (3, 4, 1) / 2h, which carries up to 3x the rounding. A closed time slope is exactly 0. Against exact differences of
# the same stencils, closed alpha and C slopes carry at most 2.3e-11 |S| of rounding at alpha in [0.1, 0.9], growing as
# 1 / (1 - alpha^2) past it, where the slope is steeply negative, and 3.0e-11 |S| on the one-sided C = 1 row: a margin
# of 33. At alpha = 0 and 1 S is 0, and the slope (omega, or about -580 omega) is 1e13 times its rounding. The floor
# decides a flag only within 1e-9 |S| of a sign change: on closed alpha sweeps, within about 1e-10 of alpha = 1/sqrt(2).
SLOPE_NOISE_TOL = 1e-9

# An option's JSON kind: the check of a config-file value, and how its flag parses. JSON true and false load as
# Python bools, which are ints too, so numbers exclude them.
_KINDS = {
    "a number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), {"type": float}),
    "an integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), {"type": int}),
    "true or false": (lambda v: isinstance(v, bool), {"action": "store_const", "const": True}),
    "a string": (lambda v: isinstance(v, str), {}),
}
_FORMATS = ("csv", "json")


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


def _option(default, kind: str, commands: str, help: str | None = None, **flag):
    """A ``RunConfig`` field that is an option: a config-file key whose
    value is of JSON ``kind``, and a flag of each of ``commands``, named
    ``--`` and the key with ``-`` for ``_``."""
    metadata = {"kind": kind, "commands": commands.split(), "flag": dict(help=help, **flag)}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """A command's parameters. Each field but ``command`` and ``figure_id``
    is an option, declared once: default, JSON kind, commands and help."""

    command: str
    model: str | None = _option(None, "a string", "speed detect", f"one of: {', '.join(MODEL_KEYS)}")
    metric: str = _option("sld", "a string", "speed figure detect", "sld | wy (default sld)")
    alpha: float = _option(1.0, "a number", "speed detect", "initial excited amplitude")
    omega: float = _option(1.0, "a number", "speed detect", "closed-model level splitting")
    gamma_ratio: float | None = _option(None, "a number", "speed regions detect", "Gamma / gamma0")
    markovian_limit: bool = _option(
        False, "true or false", "speed regions detect", "take the spectral width to infinity (P_t = exp(-gamma0 t))"
    )
    tmin: float = _option(1e-4, "a number", "speed")
    tmax: float = _option(10.0, "a number", "speed")
    points: int | None = _option(None, "an integer", "speed figure", "override the default grid size")
    sweep: str | None = _option(
        None, "a string", "detect",
        f"parameter sweep as <param>:<min>:<max>:<points>, param in {{{', '.join(SWEEP_PARAMS)}}}",
    )
    time: float = _option(
        1.0, "a number", "detect", "time of a transverse sweep, in units of 1/gamma0 (1/omega if closed)"
    )
    n_max: int = _option(1, "an integer", "regions", "intervals to list")
    format: str = _option("csv", "a string", "speed figure regions detect", choices=_FORMATS)
    out: str | None = _option(None, "a string", "speed figure regions detect", "output path (default: stdout)")
    figure_id: str | None = None


_OPTIONS = {option.name: option for option in fields(RunConfig) if option.metadata}


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
    command's own parser, which sets ``command`` by default and takes the
    flags of the options that name it, then ``--config``.

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
    ends = "the speedup ends are those of open-1q at alpha = 1 and of open-2q-anti"
    for name, help in (
        ("speed", "sample S and dS/dt over a time grid"),
        ("figure", "emit the data behind a standard figure"),
        ("regions", f"memory and speedup interval report; {ends}"),
        ("detect", "sweep a parameter and flag dS/dxi > 0 above rounding noise"),
    ):
        command = sub.add_parser(name, help=help)
        command.set_defaults(command=name)
        for key, option in _OPTIONS.items():
            if name in option.metadata["commands"]:
                flag = "--" + key.replace("_", "-")
                command.add_argument(flag, **_KINDS[option.metadata["kind"]][1], **option.metadata["flag"])
        command.add_argument("--config", help="JSON file with the same keys; flags win")
    parser.commands["figure"].add_argument("figure_id", help=f"one of: {', '.join(sorted(FIGURES))}")
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
    unknown = set(data) - set(_OPTIONS)
    if unknown:
        raise UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_OPTIONS))}"
        )
    for key, value in data.items():
        kind = _OPTIONS[key].metadata["kind"]
        if not _KINDS[kind][0](value):
            raise UsageError(f"config key '{key}' must be {kind}, got {json.dumps(value)}")
    return data


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Resolve precedence: command-line flag, then config file, then
    default. Every number must be finite."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    values = {}
    for key, option in _OPTIONS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key, option.default)
        if value is not None and option.metadata["kind"] in ("a number", "an integer"):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int, from a flag of type int or from JSON
                digits = len(str(abs(value)))
                raise UsageError(f"{key} must fit in a float, got an integer of {digits} digits") from None
            if not finite:
                hint = "; for an infinite width use --markovian-limit" if key == "gamma_ratio" else ""
                raise UsageError(f"{key} must be a finite number, got {value}{hint}")
        values[key] = value
    return RunConfig(args.command, figure_id=getattr(args, "figure_id", None), **values)


# ---------------------------------------------------------------------------
# Command implementations


def _open_params(config: RunConfig) -> OpenSystemParams:
    if config.markovian_limit:
        return OpenSystemParams(alpha=config.alpha, markovian_limit=True)
    if config.gamma_ratio is None:
        raise UsageError("open-system analysis needs --gamma-ratio or --markovian-limit")
    return OpenSystemParams(alpha=config.alpha, Gamma=config.gamma_ratio)


def _header(config: RunConfig, *items: tuple[str, object]) -> list[tuple[str, str]]:
    """The artifact and command lines, then each (key, value) item whose value is not None."""
    header = [("artifact", f"qevspeed v{__version__}"), ("command", config.command)]
    header.extend((key, _format_value(value)) for key, value in items if value is not None)
    return header


def _points(config: RunConfig, default: int) -> int:
    points = default if config.points is None else config.points
    if points < 2:
        raise UsageError(f"grid needs at least 2 points, got {points}")
    return points


def _allocated(key: str, count: int, build, *args):
    """``build(*args)``, which allocates ``count`` values; numpy's refusal of
    a count too large to allocate is a usage error that names ``key``."""
    try:
        return build(*args)
    except (ValueError, MemoryError) as exc:
        raise UsageError(f"{key} must be small enough to allocate, got {count} ({exc})") from None


def run_speed(config: RunConfig) -> TableResult:
    metric = resolve_metric(config.metric)
    points = _points(config, 200)
    if not config.tmin < config.tmax:
        raise UsageError(f"tmin must be below tmax, got [{config.tmin}, {config.tmax}]")
    if config.tmin < 0.0:
        raise UsageError("tmin must be nonnegative")
    sweep, notes = _sweep(config, metric, "t", config.tmin, config.tmax, points, "points")
    traj = sweep.trajectory
    header = _header(
        config, ("model", config.model), ("metric", metric.value), *sorted(traj.params.items()),
        ("grid", f"tmin={config.tmin:.12g} tmax={config.tmax:.12g} points={points}"),
    )
    columns = ["t", "S", "dS_dt"]
    values = [sweep.grid, sweep.speeds, sweep.slopes]
    # an open model's speed relative to its start, where it leaves the pure state; a closed model's is constant
    if config.model.startswith("open") and 0.0 < (s0 := speed_at(traj, 0.0, metric)) < math.inf:
        columns.append("S_over_S0")
        values.append(sweep.speeds / s0)
    return TableResult(header, columns, _rows(*values), notes)


def run_figure(config: RunConfig) -> TableResult:
    """A figure is its ``FigureSpec``'s bound ``detect`` sweep, with its
    columns renamed and scaled."""
    if config.figure_id not in FIGURES:
        raise UsageError(
            f"unknown figure '{config.figure_id}'; "
            f"valid ids: {', '.join(sorted(FIGURES))}"
        )
    spec = FIGURES[config.figure_id]
    name = spec.sweep
    metric = resolve_metric(config.metric)
    lo, hi, default_points = spec.grid
    points = _points(config, default_points)
    bound = replace(
        config, model=spec.model, alpha=spec.alpha, gamma_ratio=spec.gamma_ratio,
        markovian_limit=spec.markovian_limit, time=spec.fixed_time,
    )
    sweep, notes = _sweep(bound, metric, name, lo, hi, points, "points")
    header = _header(
        config, ("figure", spec.figure_id), ("model", spec.model), ("metric", metric.value),
        ("alpha", None if name == "C" else spec.alpha),  # a C sweep runs at the alpha of each C, as in detect
        ("markovian_limit", "true" if spec.markovian_limit else None),
        ("Gamma_over_gamma0", spec.gamma_ratio), ("gamma0_t", spec.fixed_time),
        ("grid", f"min={lo:.12g} max={hi:.12g} points={points}"),
    )
    grid, speeds, slopes = sweep.grid, sweep.speeds, sweep.slopes
    if name == "C":
        columns, values = ["C", "S_over_gamma0", "dS_dC_over_gamma0"], [grid, speeds, slopes]
    elif name == "Omega":
        band = (grid < 0.5).astype(float)  # the Markovian band Omega < 1/2
        columns, values = ["Omega", "S", "dS_dOmega", "markovian_band"], [grid, speeds, slopes, band]
    else:
        s0 = speed_at(sweep.trajectory, 0.0, metric)  # the speed at t = 0
        columns, values = ["t", "S_over_S0"], [grid, speeds / s0]
        if spec.model == "open-1q":
            columns.append("sqrt_P")
            values.append(memory_witness(OpenSystemParams(alpha=spec.alpha, Gamma=spec.gamma_ratio), grid))
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
    header = _header(
        config,
        ("markovian_limit", "true") if params.markovian_limit else ("Gamma_over_gamma0", params.Gamma),
        ("regime", regime.value), ("n_max", config.n_max),
    )
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


def _at(config: RunConfig, name: str, lo: float) -> tuple[str, object]:  # where S diverges: the first t, or the time
    return ("t", lo) if name == "t" else ("omega_t" if config.model.startswith("closed") else "gamma0_t", config.time)


def _sweep(
    config: RunConfig, metric: MetricKind, name: str, lo: float, hi: float, count: int, key: str
) -> tuple[SpeedSweep, list[str]]:
    """``speed_sweep`` of the configured model over ``count`` values of
    ``name`` from ``lo`` to ``hi``, at ``config.time`` if transverse, and
    its notes: where a slope is nan, that a speed diverges."""
    if config.model is None:
        raise UsageError(f"--model is required; valid keys: {', '.join(MODEL_KEYS)}")
    if name in ("Omega", "Gamma_over_gamma0") and config.markovian_limit and config.model.startswith("open"):
        raise UsageError(f"sweep '{name}' varies the spectral width; drop --markovian-limit")
    grid = _allocated(key, count, np.linspace, lo, hi, count)
    sweep = speed_sweep(
        config.model, name, grid, metric, time=config.time, alpha=config.alpha, omega=config.omega,
        Gamma_over_gamma0=config.gamma_ratio, markovian_limit=config.markovian_limit,
    )
    at, value = _at(config, name, lo)
    return sweep, [f"slope undefined: S diverges at {at} = {_format_value(value)}"] if sweep.diverges else []


def run_detect(config: RunConfig) -> TableResult:
    metric = resolve_metric(config.metric)
    name, lo, hi, n = _parse_sweep(config.sweep)
    sweep, notes = _sweep(config, metric, name, lo, hi, n, "sweep points")
    at, time = _at(config, name, lo)
    if config.model.startswith("closed"):
        bath = ("omega", config.omega)
    elif config.markovian_limit:
        bath = ("markovian_limit", "true")
    else:
        bath = ("Gamma_over_gamma0", None if name in ("Omega", "Gamma_over_gamma0") else config.gamma_ratio)
    header = _header(
        config, ("model", config.model), ("metric", metric.value),
        ("classification", "longitudinal" if name == "t" else "transverse"),
        ("sweep", f"{name}:{lo:.12g}:{hi:.12g}:{n}"), (at, None if name == "t" else time), bath,
        ("alpha", None if name in ("alpha", "C") else config.alpha),  # a C sweep runs at the alpha of each C
    )
    flags = (sweep.slopes > SLOPE_NOISE_TOL * np.abs(sweep.speeds)).astype(float)
    flags[np.isnan(sweep.slopes)] = math.nan  # divergent speeds
    rows = _rows(sweep.grid, sweep.speeds, sweep.slopes, flags)
    return TableResult(header, [name, "S", f"dS_d{name}", "speedup"], rows, notes)


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
        if config.format not in _FORMATS:
            raise UsageError(f"unknown format '{config.format}'; use csv or json")
        result = _RUNNERS[config.command](config)
    except ValueError as exc:  # usage errors and rejected metrics alike
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_csv(result) if config.format == "csv" else render_json(result)
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
