"""Paired benchmark runs of a parent checkout and a change, into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --pr 29 \\
        --workload sweeps --seeds 2901-2910 --claim sweeps:op_p50_ms

Runs ``python3 bench/run.py --workload W --seed S --seconds N --trace 0`` in
the parent's tree and in this checkout, one pair per seed. The side that
runs first alternates pair by pair: the parent at the first seed, the
change at the second, and so on. Each run's result is
the last line of its stdout. The file gets every run in the order it ran,
and a summary per workload: for each end-to-end metric, the median and the
interquartile range (inclusive quartiles) of each side, the median and the
range of the per-pair ratios change / parent, and in how many pairs the
change was better, in the direction ``BENCHMARK.json`` states.

Run it once per workload: an existing output file keeps its runs and other
keys, and its summary is recomputed from all of them. Only the standard
library is used here; the runs themselves use numpy, as the benchmark does.
Nothing under ``bench/`` and not ``BENCHMARK.json`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``2901-2910``, ``5,9,12`` or a mix of both, in the order given."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: the pairs, their seeds and each metric's statistics."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {"parent": {}, "change": {}}
        for run in runs:
            if run["workload"] == workload:
                sides[run["side"]][run["seed"]] = run["result"]
        seeds = [seed for seed in sides["parent"] if seed in sides["change"]]
        entry = {"pairs": len(seeds), "seeds": seeds}
        if not seeds:
            summary[workload] = entry
            continue
        for name in sides["parent"][seeds[0]]["metrics"]:
            parent = [sides["parent"][seed]["metrics"][name]["value"] for seed in seeds]
            change = [sides["change"][seed]["metrics"][name]["value"] for seed in seeds]
            ratios = [c / p for c, p in zip(change, parent)]
            lower = better.get(name, "lower") == "lower"
            entry[name] = {
                "parent_median": statistics.median(parent),
                "parent_iqr": quartiles(parent),
                "change_median": statistics.median(change),
                "change_iqr": quartiles(change),
                "median_ratio": statistics.median(ratios),
                "ratio_range": [min(ratios), max(ratios)],
                "change_better_pairs": sum((c < p) if lower else (c > p) for c, p in zip(change, parent)),
            }
        results = [sides[side][seed] for side in sides for seed in seeds]
        entry["failed"] = sum(result["failed"] for result in results)
        entry["all_correct"] = all(result["correct"] for result in results)
        summary[workload] = entry
    return summary


def quartiles(values: list[float]) -> list[float]:
    """The first and third inclusive quartiles; one value is its own."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True, check=False
    ).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy or None, "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="a checkout of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json in this checkout")
    parser.add_argument("--workload", required=True, choices=("curves", "sweeps", "points"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2901-2910 or 5,9,12")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--parent-rev", help="the parent commit's name, recorded as 'parent'")
    parser.add_argument("--claim", help="workload:metric the change claims to improve, recorded as 'claimed'")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out.read_text()) if out.exists() else {}
    record["benchmark"] = (
        f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, parent commit and change "
        "each from its own copy; within each workload the side that runs first alternates pair by pair"
    )
    if args.parent_rev:
        record["parent"] = args.parent_rev
    record["machine"] = machine()
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claimed"] = {"workload": workload, "metric": metric}
    runs = record.setdefault("runs", [])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in config["end_to_end"]}

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for index, seed in enumerate(args.seeds):
        for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs.append({"workload": args.workload, "seed": seed, "side": side, "result": result})
            metrics = {name: round(value["value"], 6) for name, value in result["metrics"].items()}
            print(f"{args.workload} seed {seed} {side}: {metrics}", flush=True)
            record["summary"] = summarize(runs, better)
            out.write_text(json.dumps(record, indent=1) + "\n")  # after every run, so a stopped series keeps its pairs
    for name, stats in record["summary"][args.workload].items():
        if isinstance(stats, dict):
            print(f"{name}: median ratio {stats['median_ratio']:.3f}, change better in "
                  f"{stats['change_better_pairs']} of {record['summary'][args.workload]['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
