# Checks of the installed package: the console script of [project.scripts],
# as the README installs it, and the library imported from site-packages.
# Run after `python -m pip install .`, from the repository root:
#
#     bash -e tests/installed_package.sh

qevspeed --version
qevspeed figure fig1a --points 3
qevspeed regions --gamma-ratio 0.1 --n-max 300 --format json | python -c "import json, sys; json.load(sys.stdin)"
# every S is finite where the float 1 - P_t rounds to 0 near t = 0
qevspeed speed --model open-2q-anti --gamma-ratio 0.5 --tmin 0 --tmax 1e-5 --points 5 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert rows and all(math.isfinite(float(row[1])) for row in rows), rows"
# near t = 0 an open curve reads its speed, alpha^2 sqrt(Gamma / 2) = 0.0804984 at t = 0 and 3.3e-9 less by t = 1e-7:
# every row's S is within 5e-9 of that limit and no slope is steep
qevspeed speed --model open-1q --alpha 0.6 --gamma-ratio 0.1 --tmin 0 --tmax 1e-7 --points 5 | python -c "import sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 5 and all(abs(float(row[1]) / 0.08049844718999243 - 1.0) <= 5e-9 and abs(float(row[2])) < 0.01 for row in rows), rows"
# at a tiny width the qubit moves at sqrt(Gamma / 2) = 7.07e-16 at every time of the grid
qevspeed speed --model open-1q --gamma-ratio 1e-30 --tmin 0 --tmax 10 --points 3 | python -c "import sys; rows = [line.strip().split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert [row[1] for row in rows] == ['7.07106781187e-16'] * 3, rows"
# a closed model moves at constant speed and its blocks take no phase: every row prints one S and a dS_dt of exactly 0
qevspeed speed --model closed-1q --alpha 0.2855253624007461 --omega 1.1107957869229923 --points 8 | python -c "import sys; rows = [line.strip().split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 8 and all(row[2] == '0' for row in rows) and len({row[1] for row in rows}) == 1, rows"
# fig4 is its detect C sweep, so it takes the WY metric too
qevspeed figure fig4b --metric wy --points 3 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert rows and all(math.isfinite(float(row[1])) for row in rows), rows"
# one width on a time array: the sweep crosses the hyperbolic split (t = 4.47)
qevspeed detect --model open-1q --gamma-ratio 10 --sweep t:1:10:30 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 30 and all(math.isfinite(float(row[1])) for row in rows), rows"
# an array of widths across every finite branch, routed element by element
qevspeed detect --model open-2q-aligned --time 5 --sweep Gamma_over_gamma0:0.5:12:30 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 30 and all(math.isfinite(float(row[1])) for row in rows), rows"
# a sweep to its parameter's domain end exits 0, where the slope stencil turns one-sided: t = 0, alpha and C in [0, 1]
qevspeed detect --model open-1q --gamma-ratio 0.5 --sweep t:0:5:3 > /dev/null
qevspeed detect --model open-1q --gamma-ratio 0.5 --sweep alpha:0:1:3 > /dev/null
qevspeed detect --model open-2q-aligned --gamma-ratio 0.5 --time 1 --sweep C:0:1:5 > /dev/null
# every model is defined for all t >= 0: a time sweep past t = 50
qevspeed detect --model open-1q --gamma-ratio 0.5 --sweep t:1:60:5 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 5 and all(math.isfinite(float(row[1])) for row in rows), rows"
# at the largest times kappa t overflows with no warning on stderr
late="$(mktemp)"
qevspeed speed --model open-1q --gamma-ratio 10 --tmin 1e300 --tmax 1e308 --points 2 > /dev/null 2> "$late"
test ! -s "$late"
rm -f "$late"
# at an exact zero of the float G_t the anti pair still moves, at |G'_t| / c_t, under both metrics
for metric in sld wy; do
    qevspeed detect --model open-2q-anti --gamma-ratio 0.1691959798994975 --metric "$metric" --sweep t:6.705124740062843:7:2 | python -c "import sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert abs(float(rows[0][1]) - 0.164941821962) <= 1e-9, rows"
done
# CSV and JSON print the same numbers: each JSON value is float() of its CSV cell, nan where it is nan
csv="$(mktemp)"; json="$(mktemp)"
for command in "figure fig1a" "regions --gamma-ratio 0.37 --n-max 300"; do
    qevspeed $command > "$csv"
    qevspeed $command --format json > "$json"
    python - "$csv" "$json" <<'PY'
import json, math, sys
cells = [line.strip().split(",") for line in open(sys.argv[1]) if not line.startswith("#")][1:]
rows = json.load(open(sys.argv[2]))["rows"]
assert rows and [len(row) for row in rows] == [len(row) for row in cells], (len(rows), len(cells))
for value, cell in zip(sum(rows, []), sum(cells, [])):
    want = float(cell)
    same = math.isnan(want) if math.isnan(value) else value == want and math.copysign(1.0, value) == math.copysign(1.0, want)
    assert same, (value, cell)
PY
done
rm -f "$csv" "$json"
# a flag that no command takes is a usage error that names it
bogus="$(mktemp)"
status=0; qevspeed speed --bogus 2> "$bogus" || status=$?
test "$status" -eq 2
test "$(tail -n 1 "$bogus")" = "qevspeed: error: unrecognized arguments: --bogus"
rm -f "$bogus"
# every command prints its help and exits 0
for command in speed figure regions detect; do
    qevspeed "$command" -h > /dev/null
done
# a config file gives the same bytes as the same values passed as flags
config="$(mktemp)"
printf '{"model": "open-1q", "alpha": 0.6, "gamma_ratio": 0.5, "markovian_limit": false, "time": 2, "sweep": "alpha:0:1:5", "format": "json"}' > "$config"
test "$(qevspeed detect --config "$config")" = "$(qevspeed detect --model open-1q --alpha 0.6 --gamma-ratio 0.5 --time 2 --sweep alpha:0:1:5 --format json)"
printf '{"tmin": 0, "tmax": 3, "points": 4}' > "$config"
test "$(qevspeed speed --model closed-2q-aligned --config "$config")" = "$(qevspeed speed --model closed-2q-aligned --tmin 0 --tmax 3 --points 4)"
rm -f "$config"
# the installed library's one-point API returns a positive Python float
python -c "from qevspeed import speed_at, trajectory_from_key; s = speed_at(trajectory_from_key('open-2q-aligned', alpha=0.6, Gamma_over_gamma0=0.5), 2.5); assert type(s) is float and s > 0.0, s"
# a scalar alpha takes the float route and a one-member family the batch: both agree
python -c "import math, numpy as np; from qevspeed import speed_at, trajectory_from_key; one, family = (speed_at(trajectory_from_key('open-2q-aligned', alpha=alpha, Gamma_over_gamma0=0.5), 2.5) for alpha in (0.6, np.array([0.6]))); assert math.isfinite(one) and math.isfinite(family) and abs(one - family) <= 1e-12 * abs(one), (one, family)"
# the hand-written factor is the tests' oracle (tests/util.py), not the package's: the installed package has no
# factor_trajectory, and importing it loads qevspeed.linalg, which bench/tracer.py traces with the other layers
python -c "import sys, qevspeed; assert not hasattr(qevspeed, 'factor_trajectory') and not hasattr(qevspeed.speed, 'factor_trajectory'); assert 'qevspeed.linalg' in sys.modules, sorted(sys.modules)"
# the installed library's batch API returns plain arrays, with src/ off the path: speeds_at an array of the
# family's broadcast shape (the README's (2, 3) family at t = 2), and speedup_measures the speeds and the slopes
python - <<'PY'
import pathlib, sys
src = pathlib.Path("src").resolve()
sys.path[:] = [entry for entry in sys.path if pathlib.Path(entry or ".").resolve() != src]
import numpy as np, qevspeed
from qevspeed import speeds_at, speedup_measures, trajectory_from_key
assert src not in pathlib.Path(qevspeed.__file__).resolve().parents, qevspeed.__file__
family = trajectory_from_key("open-2q-aligned", alpha=np.array([[0.3], [0.7]]), Gamma_over_gamma0=np.array([0.1, 1.0, 10.0]))
speeds = speeds_at(family, 2.0)
assert type(speeds) is np.ndarray and speeds.shape == (2, 3) and np.isfinite(speeds).all(), speeds
qubit = trajectory_from_key("open-1q", alpha=1.0, Gamma_over_gamma0=0.1)
measures = speedup_measures(lambda t: speeds_at(qubit, t), [16.0])
assert len(measures) == 2 and all(type(x) is np.ndarray and x.shape == (1,) for x in measures), measures
PY
# the installed library's speed_sweep prints the console script's detect tables, with src/ off the path: a C sweep,
# and a Markovian t sweep whose row at t = h is one-sided, at the 12 digits printed
aligned="$(mktemp)"; markovian="$(mktemp)"
qevspeed detect --model open-2q-aligned --gamma-ratio 0.5 --time 1 --sweep C:0:1:5 > "$aligned"
qevspeed detect --model open-1q --markovian-limit --sweep t:1e-5:1:3 > "$markovian"
python - "$aligned" "$markovian" <<'PY'
import pathlib, sys
src = pathlib.Path("src").resolve()
sys.path[:] = [entry for entry in sys.path if pathlib.Path(entry or ".").resolve() != src]
import numpy as np, qevspeed
from qevspeed import speed_sweep
assert src not in pathlib.Path(qevspeed.__file__).resolve().parents, qevspeed.__file__
sweeps = (speed_sweep("open-2q-aligned", "C", np.linspace(0.0, 1.0, 5), time=1.0, Gamma_over_gamma0=0.5),
          speed_sweep("open-1q", "t", np.linspace(1e-5, 1.0, 3), markovian_limit=True))
for path, sweep in zip(sys.argv[1:], sweeps):
    cells = [line.strip().split(",")[:3] for line in open(path) if not line.startswith("#")][1:]
    assert cells == [["%.12g" % x for x in row] for row in zip(sweep.grid, sweep.speeds, sweep.slopes)], cells
assert cells[0][2] == "-5920775.60015", cells
PY
rm -f "$aligned" "$markovian"
# the installed package reads the pinned values of the point path, with src/ off the path
python - <<'PY'
import pathlib, sys
src = pathlib.Path("src").resolve()
sys.path[:] = [entry for entry in sys.path if pathlib.Path(entry or ".").resolve() != src]
import pytest, qevspeed
assert src not in pathlib.Path(qevspeed.__file__).resolve().parents, qevspeed.__file__
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_pinned_points.py"]))
PY
