"""The table renderers against the one-value-at-a-time oracles in util.py:
the CSV and JSON text must be the same, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qevspeed.cli as cli
from qevspeed.models import MODEL_KEYS
from util import rank_leaking_trajectory, render_csv, render_json


def table(argv: list[str]) -> cli.TableResult:
    config = cli.merge_config(cli.build_parser().parse_args(argv))
    return cli._RUNNERS[config.command](config)


def assert_renders_as_oracle(result: cli.TableResult) -> None:
    assert cli.render_csv(result) == render_csv(result)
    assert cli.render_json(result) == render_json(result)


# fig4a and fig4b are closed-form SLD speeds and reject the WY metric
FIGURE_CASES = [
    (figure_id, metric)
    for figure_id, spec in sorted(cli.FIGURES.items())
    for metric in ("sld", "wy")
    if spec.kind != "concurrence_sweep" or metric == "sld"
]


@pytest.mark.parametrize("figure_id, metric", FIGURE_CASES)
def test_figures(figure_id, metric):
    assert_renders_as_oracle(table(["figure", figure_id, "--metric", metric]))


@pytest.mark.parametrize("model", MODEL_KEYS)
def test_speed_and_detect(model):
    common = ["--model", model, "--alpha", "0.6"]
    if model.startswith("open"):
        common += ["--gamma-ratio", "0.1"]
    assert_renders_as_oracle(table(["speed", *common, "--tmax", "30", "--points", "50"]))
    assert_renders_as_oracle(table(["detect", *common, "--sweep", "t:0.5:20:40"]))
    assert_renders_as_oracle(
        table(["detect", *common, "--sweep", "alpha:0.05:0.95:40", "--time", "3"])
    )


def test_failed_rows(monkeypatch):
    monkeypatch.setattr(cli, "trajectory_from_key", rank_leaking_trajectory)
    for argv in (
        ["figure", "fig3b", "--points", "16"],
        ["detect", "--model", "closed-1q", "--sweep", "t:1:3:5"],
    ):
        result = table(argv)
        assert np.isnan(result.rows).any() and result.notes
        assert_renders_as_oracle(result)
        assert "NaN" in cli.render_json(result)


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "--gamma-ratio", "0.37", "--n-max", "300"],
        ["regions", "--gamma-ratio", "1.999", "--n-max", "3"],
        ["regions", "--gamma-ratio", "0.5", "--n-max", "0"],
        ["regions", "--markovian-limit"],
        ["regions", "--gamma-ratio", "2"],
    ],
)
def test_regions(argv):
    assert_renders_as_oracle(table(argv))


SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -2.0, 3.0, 0.1, 1e-4, 1e-5, 9.999999999995e-5,
    999999999999.0, 999999999999.5, 1e12, 1e12 + 1, 123456789012345.0,
    9999999999999998.0, 1e16, 1e16 + 2, 1.2345678901234567e22, 1e100,
    math.nan, math.inf, -math.inf, -math.nan,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.pi, -math.e, 1 / 3, 2.0 ** 53, 2.0 ** 53 + 1,
]


def test_special_values():
    values = np.array(SPECIAL_VALUES + [0.0] * (-len(SPECIAL_VALUES) % 3))
    tricky = '"rows": null'
    result = cli.TableResult(
        header=[("artifact", "test"), ("rows", tricky)],
        columns=["a", "b", "c"],
        rows=values.reshape(-1, 3),
        notes=[tricky, "nan inf"],
    )
    assert_renders_as_oracle(result)
    # %.12g and repr differ on subnormals; the JSON value is the repr of the
    # value read back from the CSV text
    assert "4.94065645841e-324" in cli.render_csv(result)
    assert "5e-324" in cli.render_json(result)
    rows = json.loads(cli.render_json(result))["rows"]
    assert math.copysign(1.0, rows[0][1]) == -1.0
    assert math.inf in rows[6] and -math.inf in rows[7]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_any_floats(values, n_columns):
    values = values * n_columns
    result = cli.TableResult(
        header=[("artifact", "test")],
        columns=[f"c{i}" for i in range(n_columns)],
        rows=np.array(values).reshape(-1, n_columns),
    )
    assert_renders_as_oracle(result)
