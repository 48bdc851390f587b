"""The figure outputs and a fixed set of ``speed``, ``detect`` and
``regions`` commands, byte for byte: every ``figure <id> --metric <m>`` CSV
and every command of ``write_golden.COMMANDS`` against its file under
tests/golden/ (written by tests/write_golden.py).

A mismatch names each changed column with its changed row count, the
indices of those rows and the largest relative change; a changed header or
row count is named as such. Regenerating the files is a test-data change,
to be listed with its reason.
"""

import json
import math

import pytest

from write_golden import COMMANDS, OUT, outputs, render

FIGURES = [(name, argv) for name, argv in outputs() if name not in COMMANDS]


def _table(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """The header lines, the column names and the rows of cells of a CSV, or
    of a JSON table as the same lines and cells (a cell is the repr of its
    value)."""
    if text.startswith("{"):
        payload = json.loads(text)
        header = [f"# {key}: {value}" for key, value in payload["config"].items()]
        header += [f"# note: {note}" for note in payload["notes"]]
        return header, payload["columns"], [[repr(value) for value in row] for row in payload["rows"]]
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, body[0] if body else [], body[1:]


def _relative(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def describe(want: str, got: str) -> str:
    """Each difference between two CSV or two JSON texts, a column at a time."""
    (header, columns, rows), (new_header, new_columns, new_rows) = _table(want), _table(got)
    problems = []
    if header != new_header:
        problems.append(f"header: {[line for line in new_header if line not in header]} in place of "
                        f"{[line for line in header if line not in new_header]}")
    if columns != new_columns or len(rows) != len(new_rows):
        return "; ".join(problems + [f"columns {new_columns} x {len(new_rows)} rows in place of {columns} x {len(rows)}"])
    for index, name in enumerate(columns):
        changed = [row for row, (old, new) in enumerate(zip(rows, new_rows)) if old[index] != new[index]]
        if changed:
            worst = max(_relative(rows[row][index], new_rows[row][index]) for row in changed)
            shown = changed if len(changed) <= 10 else changed[:10] + ["..."]
            problems.append(f"{name}: {len(changed)} rows {shown}, largest relative change {worst:.3g}")
    return "; ".join(problems)


def _check(name, argv):
    want, got = (OUT / name).read_text(), render(argv)
    assert got == want, f"{name}: {describe(want, got)}"


@pytest.mark.parametrize("name, argv", FIGURES, ids=[name for name, _ in FIGURES])
def test_figure_prints_its_golden_bytes(name, argv):
    _check(name, argv)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_prints_its_golden_bytes(name):
    _check(name, COMMANDS[name].split())


def test_describe_names_the_changed_cells():
    want = "# a: 1\nt,S\n1,2\n3,4\n5,6\n"
    assert describe(want, "# a: 1\nt,S\n1,2\n3,4.0001\n5,6\n") == "S: 1 rows [1], largest relative change 2.5e-05"
    assert describe(want, "# a: 1\nS,t\n2,1\n4,3\n6,5\n").startswith("columns ['S', 't']")
    assert describe(want, "# a: 2\nt,S\n1,2\n3,4\n5,6\n") == "header: ['# a: 2'] in place of ['# a: 1']"
    table = {"config": {"a": "1"}, "columns": ["t", "S"], "rows": [[1, 2.5], [3, math.nan]], "notes": []}
    changed = {**table, "rows": [[1, 2.5], [3, -math.inf]], "notes": ["why"]}
    assert describe(json.dumps(table), json.dumps(changed)) == (
        "header: ['# note: why'] in place of []; S: 1 rows [1], largest relative change inf"
    )
