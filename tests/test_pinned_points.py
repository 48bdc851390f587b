"""The point path at fixed points: ``speed_at`` of all six models under both
metrics, held to the values in pinned_points.json (written by
tests/pin_points.py).

A value may move by 4 ulp, since libm and numpy differ from one platform and
numpy release to the next; a zero and an infinity must be exact. The test
imports only the package, so it runs against an installed copy too
(tests/installed_package.sh).
"""

import json
import math
import pathlib

import pytest

from qevspeed.metrics import MetricKind
from qevspeed.models import trajectory_from_key
from qevspeed.speed import speed_at

POINTS = json.loads(pathlib.Path(__file__).with_name("pinned_points.json").read_text())
ULPS = 4


@pytest.mark.parametrize(
    "model, metric, params, t, want",
    POINTS,
    ids=[f"{model}-{metric}-{'-'.join(f'{k}={v}' for k, v in params.items())}-t={t}" for model, metric, params, t, _ in POINTS],
)
def test_point_path_reads_its_pinned_value(model, metric, params, t, want):
    got, want = speed_at(trajectory_from_key(model, **params), t, MetricKind(metric)), float.fromhex(want)
    assert type(got) is float
    if want == 0.0 or math.isinf(want):
        assert got.hex() == want.hex()
    else:
        assert abs(got - want) <= ULPS * math.ulp(want), (got.hex(), want.hex())
