"""The CLI's valid-input contract, as a derandomized property test
(ROADMAP item 16): a valid ``speed`` or ``detect`` command exits 0 with
its command's columns, every row with a ``nan`` comes with a ``# note:``,
no slope is infinite next to a finite speed, and where the speed is not
finite, the slope (and ``detect``'s flag) is ``nan``.

The inputs are the valid ones: every model and metric, alpha with 0 and 1,
widths with 2 and the Markovian limit, omegas, and grids that start or end
at their parameter's domain ends (and at t = h, the slope stencil's
half-width), with ``--time 0`` among the transverse sweeps' times.
Combinations that the CLI rejects by rule (a C sweep on one qubit, a width
sweep on a closed or Markovian model) are not drawn.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qevspeed.cli as cli
from qevspeed.models import MODEL_KEYS, trajectory_from_key
from qevspeed.speed import speeds_at, stencil_step

H = float(stencil_step(0.0))  # the stencil's half-width at t <= 1

alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
widths = st.one_of(st.sampled_from([2.0, math.inf]), st.floats(-2.0, 3.0).map(lambda x: 10.0**x))
omegas = st.floats(-2.0, 2.0).map(lambda x: 10.0**x)
points = st.integers(2, 6)


def ends(lo: float, hi: float, starts: list[float], stops: list[float]):
    """A grid's (min, max) in [lo, hi], either one at a listed end or drawn."""
    inner = st.floats(lo, hi)
    return st.tuples(st.one_of(st.sampled_from(starts), inner), st.one_of(st.sampled_from(stops), inner)).filter(
        lambda pair: pair[0] < pair[1]
    )


GRIDS = {
    "t": ends(0.0, 40.0, [0.0, H], [1e-3, 40.0]),
    "alpha": ends(0.0, 1.0, [0.0], [1.0]),
    "C": ends(0.0, 1.0, [0.0], [1.0]),
    "Omega": ends(1e-3, 10.0, [1e-3], [10.0]),
    "Gamma_over_gamma0": ends(1e-3, 100.0, [1e-3], [100.0]),
}


@st.composite
def commands(draw) -> list[str]:
    model = draw(st.sampled_from(MODEL_KEYS))
    argv = ["--model", model, "--metric", draw(st.sampled_from(["sld", "wy"])), "--alpha", repr(draw(alphas))]
    width = math.nan
    if model.startswith("closed"):
        argv += ["--omega", repr(draw(omegas))]
    else:
        width = draw(widths)
        argv += ["--markovian-limit"] if width == math.inf else ["--gamma-ratio", repr(width)]
    sweeps = ["t", "alpha"] + ["C"] * ("-2q-" in model) + ["Omega", "Gamma_over_gamma0"] * (math.isfinite(width))
    name = draw(st.sampled_from(sweeps))
    lo, hi = draw(GRIDS[name])
    n = draw(points)
    if name == "t" and draw(st.booleans()):
        return ["speed", *argv, "--tmin", repr(lo), "--tmax", repr(hi), "--points", str(n)]
    if name != "t":
        argv += ["--time", repr(draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))))]
    return ["detect", *argv, "--sweep", f"{name}:{lo!r}:{hi!r}:{n}"]


def swept(argv: list[str]) -> tuple[str, np.ndarray]:
    """The swept parameter and its grid."""
    if argv[0] == "speed":
        name, lo, hi, n = "t", *(argv[argv.index(flag) + 1] for flag in ("--tmin", "--tmax", "--points"))
    else:
        name, lo, hi, n = argv[argv.index("--sweep") + 1].split(":")
    return name, np.linspace(float(lo), float(hi), int(n))


def check_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    lines = out.getvalue().splitlines()
    notes = [line for line in lines if line.startswith("# note:")]
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    name, grid = swept(argv)
    if argv[0] == "speed":
        assert columns[:3] == ["t", "S", "dS_dt"] and columns[3:] in ([], ["S_over_S0"]), columns
    else:
        assert columns == [name, "S", f"dS_d{name}", "speedup"], columns
    table = np.array(rows, dtype=float)
    assert table.shape == (grid.size, len(columns)), table.shape
    assert notes or not np.isnan(table).any(), (argv, rows)
    speeds, slopes = table[:, 1], table[:, 2]
    assert not (np.isfinite(speeds) & np.isinf(slopes)).any(), (argv, rows)
    divergent = table[~np.isfinite(speeds)]
    assert np.isnan(divergent[:, 2]).all() and (argv[0] == "speed" or np.isnan(divergent[:, 3]).all()), (argv, rows)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(commands())
def test_a_valid_command_keeps_the_contract(argv):
    check_contract(argv)


@pytest.mark.parametrize(
    "argv",
    [
        # the central stencil at t = h took the divergent t = 0 as a node, and printed -inf beside a finite S
        ["detect", "--model", "open-1q", "--markovian-limit", "--sweep", f"t:{H!r}:1:3"],
        ["detect", "--model", "open-2q-anti", "--markovian-limit", "--metric", "wy", "--sweep", f"t:{H!r}:1:3"],
        ["speed", "--model", "open-2q-aligned", "--alpha", "0.6", "--markovian-limit", "--tmin", "0",
         "--tmax", repr(2 * H), "--points", "3"],
        # a positive alpha whose square underflows: the qubit's move at t = 0 is 0 * inf, and S is nan
        ["speed", "--model", "open-1q", "--alpha", "1e-200", "--markovian-limit", "--tmin", "0", "--tmax", "1",
         "--points", "2"],
        ["detect", "--model", "open-1q", "--alpha", "0.5", "--markovian-limit", "--metric", "wy", "--time", "0",
         "--sweep", "alpha:0:1e-170:3"],
        # rows at rest (alpha = 0) whose stencil reaches a divergent alpha > 0: nan slopes beside finite speeds
        ["detect", "--model", "open-2q-aligned", "--alpha", "0.5", "--markovian-limit", "--time", "0",
         "--sweep", "C:0:1e-170:3"],
        # a divergent row whose central stencil reached a node at rest printed slope +inf and flag 0
        ["detect", "--model", "open-1q", "--markovian-limit", "--time", "0", "--sweep", "alpha:1e-5:1:3"],
        # adjacent floats: linspace repeats grid values, which no strictly-increasing check may reject
        ["detect", "--model", "open-1q", "--gamma-ratio", "0.5", "--sweep", "t:1:1.0000000000000002:5"],
    ],
    ids=["t=h-open-1q", "t=h-open-2q-anti", "t=h-open-2q-aligned", "underflow-speed", "underflow-alpha", "rest-C",
         "divergent-alpha", "adjacent-floats"],
)
def test_a_markovian_row_beside_t_0_keeps_the_contract(argv):
    check_contract(argv)


def test_the_markovian_row_at_t_h_is_one_sided():
    """At t = h the stencil keeps to t > 0: its slope is the one-sided
    difference over (h, 2h, 3h); the t = 0 row keeps inf, nan and its note."""
    argv = ["detect", "--model", "open-1q", "--markovian-limit", "--sweep", f"t:0:{2 * H!r}:3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    lines = out.getvalue().splitlines()
    assert "# note: slope undefined: S diverges at t = 0" in lines
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert rows[0][1:] == ["inf", "nan", "nan"]
    trajectory = trajectory_from_key("open-1q", alpha=1.0, markovian_limit=True)
    s0, s1, s2 = speeds_at(trajectory, np.array([H, 2 * H, 3 * H]))
    assert float(rows[1][2]) == pytest.approx((4.0 * (s1 - s0) - (s2 - s0)) / (2.0 * H), rel=1e-11)
