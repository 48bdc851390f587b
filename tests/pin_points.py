"""Writes tests/pinned_points.json: ``speed_at`` at fixed points of all six
models under both metrics, as ``float.hex``, which
tests/test_pinned_points.py holds the point path to.

The points cover the interior, the zeros tau_n of P_t, the Gamma/gamma0 = 10
tail, the critical width Gamma = 2 gamma0, the Markovian limit, t = 0,
t = 1400, closed models at omega = 1e308, and states at rest. Run from the
repository root, on the commit whose values are to be pinned:

    PYTHONPATH=src python tests/pin_points.py
"""

import json
import pathlib

from qevspeed.analysis import memory_boundaries
from qevspeed.metrics import MetricKind
from qevspeed.models import OpenSystemParams, trajectory_from_key
from qevspeed.speed import speed_at

OUT = pathlib.Path(__file__).with_name("pinned_points.json")


def cases():
    """(model, parameters, times) for every pinned point, before the metric."""
    for kind in ("1q", "2q-aligned", "2q-anti"):
        model = f"closed-{kind}"
        yield model, {"alpha": 0.6, "omega": 1.0}, [0.0, 0.5, 2.5, 1400.0]
        yield model, {"alpha": 0.35, "omega": 0.7}, [7.3]
        yield model, {"alpha": 0.6, "omega": 1e308}, [0.5, 2.5]
        yield model, {"alpha": 0.0}, [2.5]  # at rest
        yield model, {"alpha": 1.0}, [2.5]  # at rest, but for the anti pair
    for kind in ("1q", "2q-aligned", "2q-anti"):
        model = f"open-{kind}"
        yield model, {"alpha": 0.6, "Gamma_over_gamma0": 0.5}, [0.0, 0.5, 2.5, 1400.0]
        yield model, {"alpha": 0.8, "Gamma_over_gamma0": 5.0}, [0.5, 7.3]
        tau = [pair[0] for pair in memory_boundaries(OpenSystemParams(Gamma=0.3), 2)]
        yield model, {"alpha": 0.7, "Gamma_over_gamma0": 0.3}, tau
        yield model, {"alpha": 0.6, "Gamma_over_gamma0": 10.0}, [30.0, 45.0]  # the tail, P_t < 1e-12
        yield model, {"alpha": 0.6, "Gamma_over_gamma0": 2.0}, [1.0, 5.0]
        yield model, {"alpha": 0.6, "markovian_limit": True}, [0.0, 0.7, 3.0, 1400.0]
        yield model, {"alpha": 0.0, "Gamma_over_gamma0": 0.5}, [2.5]  # at rest, but for the anti pair


def main() -> None:
    rows = []
    for model, params, times in cases():
        traj = trajectory_from_key(model, **params)
        for metric in MetricKind:
            for t in times:
                rows.append([model, metric.value, params, t, speed_at(traj, t, metric).hex()])
    OUT.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"{len(rows)} points -> {OUT}")


if __name__ == "__main__":
    main()
