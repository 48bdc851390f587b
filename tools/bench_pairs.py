"""Paired benchmark runs of a parent checkout and a change, into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --pr 29 \\
        --workload sweeps --seeds 2901-2910 --claim sweeps:op_p50_ms

Runs ``python3 bench/run.py --workload W --seed S --seconds N --trace 0`` in
the parent's tree and in this checkout, one pair per seed. The side that
runs first alternates pair by pair: the parent at the first seed, the
change at the second, and so on. Each run's result is
the last line of its stdout, and its pass count ``details.timing.passes``
of the line before. The file gets every run in the order it ran,
and a summary per workload: for each end-to-end metric, the median and the
interquartile range (inclusive quartiles) of each side, the median and the
range of the per-pair ratios change / parent, and in how many pairs the
change was better, in the direction ``BENCHMARK.json`` states. Next to
``peak_rss_mb``, ``passes`` gives each side's median pass count and the
per-pair ratios: a workload that keeps a little memory per pass (``points``
does) moves its peak RSS with the pass count, whatever the program's own.
Each run also keeps the ``details.accuracy`` block of that line, its checks
against the closed forms, and ``accuracy`` gives each side's worst over its
runs: the fewest ``checked`` and ``min_digits``, the most
``closed_form_misses``, and the largest ``worst_rel_err``, overall and per
category.

Where the output file has no ``tier1`` block yet, the Tier-1 verify command
of ROADMAP.md (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) runs once in each tree first, and the
block keeps each side's exit code, result line and wall time.

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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_seeds(text: str) -> list[int]:
    """``2901-2910``, ``5,9,12`` or a mix of both, in the order given."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int, dict]:
    """The result line of one untraced benchmark run in ``tree``, its pass count and its accuracy block."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    details = json.loads(lines[-2])["details"]
    return json.loads(lines[-1]), details["timing"]["passes"], details["accuracy"]


def run_tier1(tree: Path) -> dict:
    """The Tier-1 verify command run once in ``tree``: its exit code, the last line of its output (the counts and
    pytest's own time) and the wall time of the whole process, in seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"exit": done.returncode, "result": lines[-1] if lines else "", "wall_s": round(wall, 2)}


def worst_accuracy(blocks: list[dict]) -> dict:
    """The worst of each accuracy value over ``blocks``: the fewest checks and digits, the most misses and the
    largest relative errors, per category over the categories any block reports."""
    categories = dict.fromkeys(name for block in blocks for name in block["worst_rel_err_by_category"])
    return {
        "checked": min(block["checked"] for block in blocks),
        "closed_form_misses": max(block["closed_form_misses"] for block in blocks),
        "min_digits": min(block["min_digits"] for block in blocks),
        "worst_rel_err": max(block["worst_rel_err"] for block in blocks),
        "worst_rel_err_by_category": {
            name: max(block["worst_rel_err_by_category"].get(name, 0.0) for block in blocks) for name in categories
        },
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: the pairs, their seeds and each metric's statistics."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {"parent": {}, "change": {}}
        for run in runs:
            if run["workload"] == workload:
                sides[run["side"]][run["seed"]] = run
        seeds = [seed for seed in sides["parent"] if seed in sides["change"]]
        entry = {"pairs": len(seeds), "seeds": seeds}
        if not seeds:
            summary[workload] = entry
            continue
        parent, change = ([sides[side][seed] for seed in seeds] for side in sides)
        for name in parent[0]["result"]["metrics"]:
            before, after = ([run["result"]["metrics"][name]["value"] for run in pairs] for pairs in (parent, change))
            ratios = [c / p for c, p in zip(after, before)]
            lower = better.get(name, "lower") == "lower"
            entry[name] = {
                "parent_median": statistics.median(before),
                "parent_iqr": quartiles(before),
                "change_median": statistics.median(after),
                "change_iqr": quartiles(after),
                "median_ratio": statistics.median(ratios),
                "ratio_range": [min(ratios), max(ratios)],
                "change_better_pairs": sum((c < p) if lower else (c > p) for c, p in zip(after, before)),
            }
        # passes and accuracy are absent from runs recorded before they were kept
        before, after = ([run.get("passes") for run in pairs] for pairs in (parent, change))
        if None not in before + after:
            entry["passes"] = {
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "median_ratio": statistics.median(c / p for c, p in zip(after, before)),
                "pair_ratios": [c / p for c, p in zip(after, before)],
            }
        if all("accuracy" in run for run in parent + change):
            entry["accuracy"] = {side: worst_accuracy([run["accuracy"] for run in pairs])
                                 for side, pairs in (("parent", parent), ("change", change))}
        entry["failed"] = sum(run["result"]["failed"] for run in parent + change)
        entry["all_correct"] = all(run["result"]["correct"] for run in parent + change)
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
    if "tier1" not in record:
        record["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1)}
        for side, tree in trees.items():
            record["tier1"][side] = run_tier1(tree)
            print(f"tier1 {side}: {record['tier1'][side]['result']} ({record['tier1'][side]['wall_s']:g} s wall)")
        out.write_text(json.dumps(record, indent=1) + "\n")
    for index, seed in enumerate(args.seeds):
        for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
            result, passes, accuracy = run_once(trees[side], args.workload, seed, args.seconds)
            runs.append({"workload": args.workload, "seed": seed, "side": side, "result": result, "passes": passes,
                         "accuracy": accuracy})
            metrics = {name: round(value["value"], 6) for name, value in result["metrics"].items()}
            print(f"{args.workload} seed {seed} {side}: {metrics}, {passes} passes, "
                  f"worst_rel_err {accuracy['worst_rel_err']:.3g}", flush=True)
            record["summary"] = summarize(runs, better)
            out.write_text(json.dumps(record, indent=1) + "\n")  # after every run, so a stopped series keeps its pairs
    for name, stats in record["summary"][args.workload].items():
        if name == "passes":
            print(f"passes: median {stats['parent_median']:g} parent, {stats['change_median']:g} change, "
                  f"median ratio {stats['median_ratio']:.3f}")
        elif name == "accuracy":
            for side, worst in stats.items():
                print(f"accuracy, {side}: {worst['checked']} checked, {worst['closed_form_misses']} closed-form misses, "
                      f"min_digits {worst['min_digits']:.3f}, worst_rel_err {worst['worst_rel_err']:.3g}")
        elif isinstance(stats, dict):
            print(f"{name}: median ratio {stats['median_ratio']:.3f}, change better in "
                  f"{stats['change_better_pairs']} of {record['summary'][args.workload]['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
