"""Writes tests/golden/: the CSV that ``qevspeed figure <id> --metric <m>``
prints for every figure id under both metrics, at its default grid, and
what each of a small fixed set of ``speed``, ``detect`` and ``regions``
commands prints (``COMMANDS``: every model, every sweep parameter, both
formats), which tests/test_golden.py holds the CLI to byte for byte.

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

# file name -> command line: speed on each of the six models (a Markovian
# curve from t = 0 among them), detect over each of the five sweep parameters,
# and regions in and out of the non-Markovian regime, in CSV and JSON
COMMANDS = {
    "speed-closed-1q.csv": "speed --model closed-1q --alpha 0.6 --omega 1.3 --points 5",
    "speed-closed-2q-aligned.json": "speed --model closed-2q-aligned --alpha 0.5 --metric wy --points 5 --format json",
    "speed-closed-2q-anti.csv": "speed --model closed-2q-anti --alpha 0.3 --points 3",
    "speed-open-1q.csv": "speed --model open-1q --alpha 0.6 --gamma-ratio 0.1 --tmin 0 --tmax 30 --points 13",
    "speed-open-1q-markovian.csv": "speed --model open-1q --markovian-limit --tmin 0 --tmax 2 --points 5",
    "speed-open-2q-aligned.json": "speed --model open-2q-aligned --alpha 0.7 --gamma-ratio 10 --metric wy "
                                  "--points 9 --format json",
    "speed-open-2q-anti.csv": "speed --model open-2q-anti --gamma-ratio 0.5 --tmin 0.5 --tmax 20 --points 9",
    "detect-t.csv": "detect --model open-1q --gamma-ratio 0.1 --sweep t:1:30:12",
    "detect-alpha.json": "detect --model closed-1q --omega 2 --time 1.5 --sweep alpha:0.1:0.9:9 --format json",
    "detect-C.csv": "detect --model open-2q-aligned --gamma-ratio 0.5 --time 2 --metric wy --sweep C:0.1:0.9:9",
    "detect-Omega.json": "detect --model open-1q --alpha 0.6 --time 1 --sweep Omega:0.05:2:9 --format json",
    "detect-Gamma_over_gamma0.csv": "detect --model open-2q-anti --time 3 --sweep Gamma_over_gamma0:0.5:12:9",
    "regions.csv": "regions --gamma-ratio 0.1 --n-max 3",
    "regions.json": "regions --gamma-ratio 0.37 --n-max 4 --format json",
    "regions-markovian.csv": "regions --markovian-limit",
}


def outputs():
    """(file name, CLI arguments) of every golden file."""
    for figure_id in sorted(cli.FIGURES):
        for metric in ("sld", "wy"):
            yield f"{figure_id}-{metric}.csv", ["figure", figure_id, "--metric", metric]
    for name, command in COMMANDS.items():
        yield name, command.split()


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
