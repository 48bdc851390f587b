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
# fig4 is its detect C sweep, so it takes the WY metric too
qevspeed figure fig4b --metric wy --points 3 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert rows and all(math.isfinite(float(row[1])) for row in rows), rows"
# one width on a time array: the sweep crosses the hyperbolic split (t = 4.47)
qevspeed detect --model open-1q --gamma-ratio 10 --sweep t:1:10:30 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 30 and all(math.isfinite(float(row[1])) for row in rows), rows"
# an array of widths across every finite branch, routed element by element
qevspeed detect --model open-2q-aligned --time 5 --sweep Gamma_over_gamma0:0.5:12:30 | python -c "import math, sys; rows = [line.split(',') for line in sys.stdin if not line.startswith('#')][1:]; assert len(rows) == 30 and all(math.isfinite(float(row[1])) for row in rows), rows"
# a flag that no command takes is a usage error that names it
bogus="$(mktemp)"
status=0; qevspeed speed --bogus 2> "$bogus" || status=$?
test "$status" -eq 2
test "$(tail -n 1 "$bogus")" = "qevspeed: error: unrecognized arguments: --bogus"
rm -f "$bogus"
# the installed library's one-point API returns a positive Python float
python -c "from qevspeed import speed_at, trajectory_from_key; s = speed_at(trajectory_from_key('open-2q-aligned', alpha=0.6, Gamma_over_gamma0=0.5), 2.5); assert type(s) is float and s > 0.0, s"
# a scalar alpha takes the float route and a one-member family the batch: both agree
python -c "import math, numpy as np; from qevspeed import speed_at, trajectory_from_key; one, family = (speed_at(trajectory_from_key('open-2q-aligned', alpha=alpha, Gamma_over_gamma0=0.5), 2.5) for alpha in (0.6, np.array([0.6]))); assert math.isfinite(one) and math.isfinite(family) and abs(one - family) <= 1e-12 * abs(one), (one, family)"
