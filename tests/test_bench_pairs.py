"""``tools/bench_pairs.py``'s summary of paired benchmark runs, on synthetic
runs: standard library only, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"rows_per_s": "higher", "peak_rss_mb": "lower"}


def run(workload, seed, side, rows, rss, passes=None, accuracy=None, failed=0):
    record = {
        "workload": workload,
        "seed": seed,
        "side": side,
        "result": {
            "correct": not failed,
            "failed": failed,
            "metrics": {"rows_per_s": {"value": rows}, "peak_rss_mb": {"value": rss}},
        },
    }
    if passes is not None:
        record["passes"] = passes
    if accuracy is not None:
        record["accuracy"] = accuracy
    return record


def accuracy(checked, misses, digits, worst, **by_category):
    return {
        "checked": checked,
        "closed_form_misses": misses,
        "min_digits": digits,
        "worst_rel_err": worst,
        "worst_rel_err_by_category": by_category,
    }


def test_summary_of_paired_runs_keeps_each_sides_worst_accuracy():
    runs = [
        run("points", 1, "parent", 100.0, 60.0, 10, accuracy(259, 0, 14.8, 1.5e-15, interior=1.5e-15, t0=1e-16)),
        run("points", 1, "change", 110.0, 61.0, 11, accuracy(259, 0, 14.9, 1.2e-15, interior=1.2e-15, t0=2e-16)),
        run("points", 2, "change", 130.0, 59.0, 13, accuracy(250, 1, 13.0, 9e-14, interior=9e-14)),
        run("points", 2, "parent", 120.0, 60.0, 12, accuracy(261, 0, 14.5, 3e-15, tail=3e-15)),
        run("points", 3, "parent", 1.0, 1.0, 1, accuracy(1, 9, 1.0, 1.0)),  # unpaired: left out
        run("curves", 5, "parent", 300.0, 40.0),
        run("curves", 5, "change", 330.0, 44.0, failed=1),
    ]
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["points", "curves"]
    points = summary["points"]
    assert points["pairs"] == 2 and points["seeds"] == [1, 2]
    rows = points["rows_per_s"]
    assert rows["parent_median"] == 110.0 and rows["change_median"] == 120.0
    assert rows["ratio_range"] == [130.0 / 120.0, 110.0 / 100.0]
    assert rows["change_better_pairs"] == 2
    assert points["peak_rss_mb"]["change_better_pairs"] == 1
    assert points["passes"]["pair_ratios"] == [1.1, 13 / 12]
    assert points["accuracy"] == {
        "parent": accuracy(259, 0, 14.5, 3e-15, interior=1.5e-15, t0=1e-16, tail=3e-15),
        "change": accuracy(250, 1, 13.0, 9e-14, interior=9e-14, t0=2e-16),
    }
    assert points["failed"] == 0 and points["all_correct"]
    curves = summary["curves"]
    # runs recorded before passes and accuracy were kept have neither in their summary
    assert "passes" not in curves and "accuracy" not in curves
    assert curves["failed"] == 1 and not curves["all_correct"]
    assert curves["peak_rss_mb"]["median_ratio"] == pytest.approx(1.1)


def test_a_workload_without_a_pair_has_no_statistics():
    summary = bench_pairs.summarize([run("sweeps", 7, "change", 1.0, 1.0)], BETTER)
    assert summary == {"sweeps": {"pairs": 0, "seeds": []}}


def test_tier1_runs_in_the_tree_with_its_src_on_the_path(tmp_path, monkeypatch):
    """``run_tier1`` runs ``TIER1`` (here a stand-in, not a whole pytest
    run) in the tree, with the tree's ``src`` on the path, and keeps its
    last line."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text("VALUE = 3\n")
    monkeypatch.setattr(bench_pairs, "TIER1", ["-c", "import tiny; print('.'); print(f'{tiny.VALUE} passed in 0.01s')"])
    result = bench_pairs.run_tier1(tmp_path)
    assert result["exit"] == 0 and result["result"] == "3 passed in 0.01s"
    assert result["wall_s"] >= 0.0


def test_a_file_without_tier1_runs_it_once_per_side(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "rows_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "machine", dict)
    trees = []
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda tree: trees.append(tree) or {"result": "2 passed", "wall_s": 1.0})
    result = {"correct": True, "failed": 0, "metrics": {"rows_per_s": {"value": 5.0}}}
    accuracy_block = accuracy(1, 0, 15.0, 1e-15)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: (result, 7, accuracy_block))
    argv = ["--parent", str(tmp_path / "parent"), "--pr", "99", "--workload", "points", "--seeds", "1", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    assert trees == [(tmp_path / "parent").resolve(), tmp_path]
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["tier1"]["parent"] == record["tier1"]["change"] == {"result": "2 passed", "wall_s": 1.0}
    assert bench_pairs.main([*argv[:5], "sweeps", *argv[6:]]) == 0
    assert len(trees) == 2  # the file has its block: not run again
    assert len(json.loads((tmp_path / "BENCH_99.json").read_text())["runs"]) == 4
