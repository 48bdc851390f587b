"""Self-checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run the benchmark for about a second per run, so they are kept out of
the package's test suite (``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

# Layer metrics that are counts of work: they must repeat exactly at one seed.
REPEATABLE = ("speed.evals_per_row", "speed.kernel_pairs")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    first, second = (result(bench(workload, 7, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _, _, _ in run.LAYER_METRICS}
    counted = [n for n in first["metrics"] if n.endswith(".calls") or n in REPEATABLE]
    assert counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_draws_the_inputs(workload):
    assert repr(workloads.generate(workload, 1)) == repr(workloads.generate(workload, 1))
    assert repr(workloads.generate(workload, 1)) != repr(workloads.generate(workload, 2))


def test_untraced_run_reports_end_to_end_metrics_and_known_defects():
    out = bench("sweeps", 3, 0)
    final = result(out)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] >= 1 and final["failed"] == 0
    assert set(final["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in final["metrics"].values())
    details = json.loads(out.stdout.splitlines()[-2])["details"]
    assert [probe["exit"] for probe in details["probes"]] == [2, 2]
    assert details["failed_share_base"]["failed"] == 2


def test_points_record_the_boundary_misses():
    final = result(bench("points", 3, 1))
    assert final["metrics"]["closed_form_misses"]["value"] > 0
    assert final["metrics"]["min_digits"]["value"] == 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("points", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
