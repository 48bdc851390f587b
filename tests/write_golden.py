"""Writes tests/golden/: the CSV that ``qevspeed figure <id> --metric <m>``
prints for every figure id under both metrics, at its default grid, which
tests/test_golden.py holds the CLI to byte for byte.

The files record what the figures print, defects included: a regression
baseline, not a statement that the values are right. Run from the
repository root, on the commit whose output is to be recorded:

    PYTHONPATH=src python tests/write_golden.py
"""

import contextlib
import io
import pathlib

from qevspeed import cli

OUT = pathlib.Path(__file__).with_name("golden")


def outputs():
    """(file name, CLI arguments) of every golden file."""
    for figure_id in sorted(cli.FIGURES):
        for metric in ("sld", "wy"):
            yield f"{figure_id}-{metric}.csv", ["figure", figure_id, "--metric", metric]


def render(argv: list[str]) -> str:
    """What ``qevspeed`` prints on stdout for ``argv``, which must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code:
        raise SystemExit(f"qevspeed {' '.join(argv)} exited {code}")
    return out.getvalue()


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, argv in outputs():
        (OUT / name).write_text(render(argv))
    print(f"{len(list(outputs()))} files -> {OUT}")


if __name__ == "__main__":
    main()
