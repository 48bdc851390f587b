"""Benchmark of the qevspeed library and CLI.

    python3 bench/run.py --workload curves --seed 1 --seconds 35 --trace 0

Runs one workload (``curves``, ``sweeps`` or ``points``, see workloads.py)
from the package source under ``src/`` for ``--seconds`` seconds, checks its
outputs, and prints two lines: a JSON object of details (provenance, SHA-256
digests of every command's emitted text, accuracy against the closed forms,
the known-defect probes, per-function trace tables), then, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced runs.
Their times are scaled to a fixed machine speed measured by a reference
kernel run alongside (see reference.py); the unscaled times are in the
details line. With ``--trace 1`` traced and untraced passes alternate; the
metrics are the per-layer ones (``LAYER_METRICS``) from the traced passes,
unscaled, plus the tracing overhead. Only numpy and the standard library are
used; BLAS and OpenMP are pinned to one thread in this process and its
children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Reference kernel runs per pass, evenly spaced between operations, and
# before each set-up process.
REFERENCE_SAMPLES = 5

# Tail percentiles tried from the top; the first with at least ten samples
# beyond it is reported. The ladder stops at p95: on a shared 2-core machine
# p99 and p99.9 of a 0.2 ms call measure interrupts from other tenants, and
# they moved by 20% to 4x between runs of the same code.
TAIL_LADDER = (95.0, 90.0, 50.0)
TAIL_BEYOND = 10

# Set-up in a fresh process: import numpy and the package, build the parser
# (inside cli.main) and complete one fixed operation of the workload.
SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import numpy
import qevspeed
from qevspeed import cli, models, speed
if sys.argv[2] == "points":
    traj = models.trajectory_from_key("open-2q-aligned", alpha=0.6, Gamma_over_gamma0=0.5)
    speed.speed_at(traj, 1.0)
else:
    argv = {"curves": ["figure", "fig4a"],
            "sweeps": ["regions", "--gamma-ratio", "0.5", "--n-max", "3", "--format", "json"]}
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv[sys.argv[2]])
    if code:
        sys.exit(code)
print("done", flush=True)
"""

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move). Self times are listed only for functions every workload
# calls; the others are in the details line (a time that reads 0 on every run
# of a workload that never calls the function would not be a measurement).
LAYER_METRICS = [
    ("models.state_at.calls", "count", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.state_at.self_s", "s", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.derivative_at.calls", "count", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.derivative_at.self_s", "s", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.local_damping_evolve.calls", "count", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.local_damping_evolve.self_s", "s", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.amplitude_factor.calls", "count", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.amplitude_factor.self_s", "s", "lower", "rows_per_s, op_p50_ms on curves"),
    ("models.trajectory_from_key.calls", "count", "lower", "rows_per_s on sweeps"),
    ("models.trajectory_from_key.self_s", "s", "lower", "rows_per_s on sweeps"),
    ("linalg.eigh.calls", "count", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("linalg.eigh.self_s", "s", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("linalg.hermitian_check.calls", "count", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("linalg.hermitian_check.self_s", "s", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("speed.speed_at.calls", "count", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("speed.speed_at.self_s", "s", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("speed.rho_dot.calls", "count", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("speed.rho_dot.self_s", "s", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("metrics.mc_function.calls", "count", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("metrics.mc_function.self_s", "s", "lower", "op_p50_ms on points, rows_per_s on curves"),
    ("speed.kernel_pairs", "count", "lower", "op_p50_ms on points"),
    # speed_at calls per output row of the commands that evaluate speeds
    # (every command but ``regions``; every point on ``points``)
    ("speed.evals_per_row", "ratio", "lower", "rows_per_s on curves and sweeps"),
    ("speed.speedup_measure.calls", "count", "lower", "rows_per_s on curves and sweeps"),
    ("speed.t0_limit.calls", "count", "lower", "closed_form_misses, min_digits on points"),
    ("metrics.pure_state_speed.calls", "count", "lower", "closed_form_misses, min_digits on points"),
    ("speed.speed_at.failures", "count", "lower", "failed_share on sweeps"),
    ("analysis.region_report.calls", "count", "lower", "rows_per_s, op_tail_ms on sweeps"),
    ("analysis.memory_witness.calls", "count", "lower", "rows_per_s, op_tail_ms on sweeps"),
    ("analysis.speedup_equation.calls", "count", "lower", "rows_per_s, op_tail_ms on sweeps"),
    ("cli.build_parser.calls", "count", "lower", "rows_per_s on sweeps"),
    ("cli.merge_config.calls", "count", "lower", "rows_per_s on sweeps"),
    ("cli.run_speed.calls", "count", "lower", "rows_per_s on curves"),
    ("cli.run_figure.calls", "count", "lower", "rows_per_s on curves"),
    ("cli.run_regions.calls", "count", "lower", "rows_per_s on sweeps"),
    ("cli.run_detect.calls", "count", "lower", "rows_per_s on sweeps"),
    ("cli.render_csv.calls", "count", "lower", "rows_per_s on curves"),
    ("cli.render_csv.bytes", "bytes", "lower", "rows_per_s on curves"),
    ("cli.render_json.calls", "count", "lower", "rows_per_s on sweeps"),
    ("cli.render_json.bytes", "bytes", "lower", "rows_per_s on sweeps"),
    ("rows_per_pass", "rows", "higher", "rows_per_s on every workload"),
    ("failed_share", "ratio", "lower", "failed_share on sweeps"),
    ("closed_form_misses", "count", "lower", "closed_form_misses on points"),
    ("min_digits", "digits", "higher", "min_digits on points"),
    ("trace.overhead_share", "ratio", "lower", "none: traced over untraced wall time, minus 1"),
]

# Counted by the tracer's hooks rather than by spans.
COMPUTED_COUNTS = {
    "speed.t0_limit.calls",
    "speed.kernel_pairs",
    "cli.render_csv.bytes",
    "cli.render_json.bytes",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "sweeps", "points"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def load_package() -> None:
    """Import qevspeed from the source tree next to this script, never from
    an installed copy, so the benchmark measures the checkout it sits in."""
    if not (SRC / "qevspeed" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'qevspeed'}")
    sys.path.insert(0, str(SRC))
    import qevspeed

    if Path(qevspeed.__file__).resolve().parent != (SRC / "qevspeed").resolve():
        raise SystemExit(f"bench: imported qevspeed from {qevspeed.__file__}, not {SRC}")


def provenance(seed: int) -> dict:
    import numpy as np  # after the thread pins are in the environment

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "qevspeed").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_once(workload: str) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter to its first completed
    operation, and the median reference kernel time just before the spawn.
    The child is waited for before returning."""
    import reference

    kernel_s = statistics.median(reference.sample() for _ in range(REFERENCE_SAMPLES))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), workload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "done":
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()}")
    return elapsed, kernel_s


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder with at
    least TAIL_BEYOND samples beyond it, by nearest rank."""
    import numpy as np

    ordered = np.sort(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return q, float(ordered[rank - 1])
    return 100.0, float(ordered[-1])


@dataclass
class Pass:
    """One run through every input.

    ``latencies`` holds each operation's time (inf when it failed) in a
    compact array, so the benchmark's own memory hardly grows with the number
    of passes and peak_rss_mb stays the program's. ``kernel_s`` is the median
    reference kernel time within the pass; ``wall_s`` the pass's wall time
    without the kernel runs.
    """

    latencies: array
    kernel_s: float
    wall_s: float
    texts: dict[str, str]
    outcomes: list


class Bench:
    """One workload's inputs, passes and checks.

    ``rows[i]`` and ``probe[i]`` describe operation i; the check pass sets
    the rows.
    """

    def __init__(self, workload: str, seed: int):
        import workloads

        self.w = workloads
        self.workload = workload
        self.inputs = workloads.generate(workload, seed)
        self.rows = [1] * len(self.inputs)
        self.probe = [getattr(item, "probe", False) for item in self.inputs]
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def run_pass(self) -> Pass:
        import reference

        n = len(self.inputs)
        marks = {i * n // REFERENCE_SAMPLES for i in range(REFERENCE_SAMPLES)}
        run_one = self._point if self.workload == "points" else self._command
        latencies, kernel, outcomes = array("d"), [], []
        begin = time.perf_counter()
        for i, item in enumerate(self.inputs):
            if i in marks:
                kernel.append(reference.sample())
            latency, outcome = run_one(item)
            latencies.append(latency)
            outcomes.append(outcome)
        wall = time.perf_counter() - begin - sum(kernel)
        if self.workload == "points":
            texts = {"points": self.w.points_text(self.inputs, outcomes)}
        else:
            texts = {c.label: o.text for c, o in zip(self.inputs, outcomes)}
        return Pass(latencies, statistics.median(kernel), wall, texts, outcomes)

    def _command(self, command) -> tuple[float, object]:
        start = time.perf_counter()
        code, text, err = self.w.run_command(command)
        elapsed = time.perf_counter() - start
        return (elapsed if code == 0 else math.inf), self.w.Outcome(code, text, err)

    def _point(self, point) -> tuple[float, float]:
        from qevspeed.errors import NumericalFailure
        from qevspeed.metrics import MetricKind

        traj = self.w.trajectory(point.case)
        metric = MetricKind(point.case.metric)
        speed_at = sys.modules["qevspeed.speed"].speed_at
        start = time.perf_counter()
        try:
            value = speed_at(traj, point.t, metric)
        except NumericalFailure:
            return math.inf, math.nan
        return time.perf_counter() - start, value

    def check_pass(self) -> dict:
        """Untimed first pass: run everything, check outputs against the
        expected shape and the closed forms, and record the digests."""
        accuracy = self.w.Accuracy()
        first = self.run_pass()
        latencies, texts, outcomes = first.latencies, first.texts, first.outcomes
        probes = []
        if self.workload == "points":
            for point, value in zip(self.inputs, outcomes):
                if not math.isnan(value):
                    self.w.check_point(point, value, accuracy)
        else:
            for i, (command, outcome) in enumerate(zip(self.inputs, outcomes)):
                problems = self.w.check_command(command, outcome, accuracy)
                self.rows[i] = outcome.rows
                if command.probe:
                    probe = {"argv": command.label, "exit": outcome.code, "stderr": outcome.error.strip()}
                    probes.append(probe)
                else:
                    self.problems.extend(problems)
        self.problems.extend(accuracy.gated_misses)
        self.digests = {label: self.w.digest(text) for label, text in texts.items()}
        speed_rows = sum(
            rows for item, rows in zip(self.inputs, self.rows)
            if getattr(item, "argv", ("speed",))[0] != "regions"
        )
        return {
            "speed_rows": speed_rows,
            "accuracy": accuracy,
            "probes": probes,
            "failed": sum(1 for lat in latencies if math.isinf(lat)),
            "attempted": len(latencies),
        }

    def verify(self, texts: dict[str, str]) -> None:
        for label, text in texts.items():
            if self.w.digest(text) != self.digests[label]:
                self.problems.append(f"{label}: output differs from the first pass")

    def timed(self, passes: list[Pass], scaled: bool = False):
        """Latencies of the timed operations: one row per pass, one column
        per operation that is not a probe; ``scaled`` puts each pass at the
        reference speed (reference.NOMINAL_S / the pass's kernel time)."""
        import numpy as np

        import reference

        ops = [i for i, probe in enumerate(self.probe) if not probe]
        matrix = np.vstack([np.frombuffer(p.latencies) for p in passes])[:, ops]
        if scaled:
            matrix *= np.array([[reference.NOMINAL_S / p.kernel_s] for p in passes])
        return matrix


def timed_metrics(bench: Bench, passes: list[Pass], scaled: bool) -> dict:
    """End-to-end timings over the timed operations of every pass.

    rows_per_s is one pass's rows over the sum of each operation's median
    latency across passes, so a pass slowed by another tenant does not count
    more than any other.
    """
    import numpy as np

    latencies = bench.timed(passes, scaled)
    rows = sum(r for r, probe in zip(bench.rows, bench.probe) if not probe)
    q, tail_s = tail(latencies.ravel())
    return {
        "rows_per_s": rows / float(np.sum(np.median(latencies, axis=0))),
        "op_p50_ms": float(np.median(latencies)) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": q,
        "op_samples": latencies.size,
    }


def layer_metrics(bench: Bench, snapshots: list[dict], check: dict, overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass (every traced
    pass repeats them), self times as medians over the traced passes."""
    first = snapshots[0]
    accuracy = check["accuracy"]
    values = {}
    for name, _, _, _ in LAYER_METRICS:
        if name in COMPUTED_COUNTS:
            values[name] = first["counts"].get(name, 0)
        elif name.endswith(".self_s"):
            label = name.removesuffix(".self_s")
            values[name] = statistics.median(s["self_s"].get(label, 0.0) for s in snapshots)
        elif name.endswith(".failures"):
            values[name] = first["failures"].get(name.removesuffix(".failures"), 0)
        elif name.endswith(".calls"):
            values[name] = first["calls"].get(name.removesuffix(".calls"), 0)
    values["speed.evals_per_row"] = first["calls"].get("speed.speed_at", 0) / check["speed_rows"]
    values["rows_per_pass"] = sum(bench.rows)
    values["failed_share"] = check["failed"] / check["attempted"]
    values["closed_form_misses"] = accuracy.misses
    values["min_digits"] = accuracy.min_digits
    values["trace.overhead_share"] = overhead
    return values


def snapshot(tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "failures": dict(tracer.failures),
        "counts": dict(tracer.counts),
    }


def measure(bench: Bench, seconds: float) -> list[Pass]:
    """Untraced passes until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        done = bench.run_pass()
        bench.verify(done.texts)
        done.texts = done.outcomes = None
        passes.append(done)
    return passes


def measure_traced(bench: Bench, seconds: float) -> tuple[list[Pass], list[dict], float]:
    """Alternate traced and untraced passes until ``seconds`` have passed.

    Returns the untraced passes, a snapshot of the tracer per traced pass,
    and the tracing overhead: median traced over median untraced pass wall
    time, minus 1.
    """
    from tracer import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    passes, snapshots, traced_walls = [], [], []
    while not passes or time.perf_counter() < deadline:
        tracer.reset()
        tracer.install()
        try:
            traced = bench.run_pass()
        finally:
            tracer.uninstall()
        bench.verify(traced.texts)
        snapshots.append(snapshot(tracer))
        traced_walls.append(traced.wall_s)
        passes.extend(measure(bench, 0.0))  # one untraced pass
    if any(s["calls"] != snapshots[0]["calls"] for s in snapshots):
        bench.problems.append("traced call counts differ between passes")
    plain_walls = [p.wall_s for p in passes]
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return passes, snapshots, overhead


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    load_package()

    bench = Bench(args.workload, args.seed)
    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    details["provenance"] = provenance(args.seed)
    details["inputs_sha256"] = bench.w.digest(repr(bench.inputs))

    import reference

    setup = [setup_once(args.workload) for _ in range(SETUP_REPEATS)]
    check = bench.check_pass()
    if args.trace:
        passes, snapshots, overhead = measure_traced(bench, args.seconds)
        metrics = layer_metrics(bench, snapshots, check, overhead)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        details["trace_tables"] = {
            "calls": snapshots[0]["calls"],
            "self_s": {
                label: statistics.median(s["self_s"].get(label, 0.0) for s in snapshots)
                for label in snapshots[0]["self_s"]
            },
            "failures": snapshots[0]["failures"],
            "traced_passes": len(snapshots),
            "note": "speed.kernel_pairs is computed (dim^2 per kernel-path speed_at call), not observed",
            "should_move": {name: moves for name, _, _, moves in LAYER_METRICS},
        }
    else:
        passes = measure(bench, args.seconds)
        timing = timed_metrics(bench, passes, scaled=True)
        metrics = {name: timing.pop(name) for name in ("rows_per_s", "op_p50_ms", "op_tail_ms")}
        metrics["setup_s"] = statistics.median(t * reference.NOMINAL_S / k for t, k in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        kernel = [p.kernel_s for p in passes]
        details["timing"] = {
            **timing,
            "passes": len(passes),
            "unscaled": timed_metrics(bench, passes, scaled=False),
            "reference_kernel_s": {
                "nominal": reference.NOMINAL_S,
                "median": statistics.median(kernel),
                "min": min(kernel),
                "max": max(kernel),
            },
        }

    accuracy = check["accuracy"]
    details.update(
        setup_s_samples=[{"wall_s": t, "kernel_s": k} for t, k in setup],
        digests=bench.digests,
        probes=check["probes"],
        failed_share_base={"failed": check["failed"], "attempted": check["attempted"]},
        accuracy={
            "checked": accuracy.checked,
            "closed_form_misses": accuracy.misses,
            "min_digits": accuracy.min_digits,
            "worst_rel_err": accuracy.worst,
            "worst_rel_err_by_category": accuracy.worst_by_category,
        },
        problems=bench.problems,
    )
    for problem in bench.problems:
        print(f"bench: {problem}", file=sys.stderr)
    timed = bench.timed(passes)
    # A metric is not finite only when every sample of an operation failed;
    # such a run is already incorrect, and JSON has no infinity.
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": finite and not bench.problems,
        "attempted": int(timed.size),
        "failed": int((timed == math.inf).sum()),
        "metrics": {
            name: {"value": value if math.isfinite(value) else -1.0, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
