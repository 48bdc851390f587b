import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

import qevspeed.cli as cli
from qevspeed.analysis import region_report, speedup_boundaries, speedup_equation
from qevspeed.metrics import MetricKind
from qevspeed.models import (
    _SWEEPS,
    MODEL_KEYS,
    OpenSystemParams,
    alpha_from_concurrence,
    markovian_two_qubit_speed,
    open_qubit_speed_analytic,
    speed_sweep,
    trajectory_from_key,
)
from qevspeed.speed import speed_at, speed_curve, speeds_at, speedup_measures, stencil_step
from util import exact_alpha, exact_speed, reference_slope, reference_speed

SQRT_HALF = 1.0 / math.sqrt(2.0)
OPEN_AT_ONE = ("--model", "open-1q", "--gamma-ratio", "0.5", "--time", "1")
HUGE = 10**400  # an integer that no float holds


def run_to_file(tmp_path, args, name="out.csv"):
    path = tmp_path / name
    code = cli.main([*args, "--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def table(argv):
    """The ``TableResult`` a command computes, before it is rendered."""
    config = cli.merge_config(cli.build_parser().parse_args(argv))
    return cli._RUNNERS[config.command](config)


def parse_csv(text):
    header = {}
    columns = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


class TestSpeedCommand:
    def test_closed_qubit_constant_column(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "speed", "--model", "closed-1q", "--alpha", "0.6", "--omega", "1",
                "--tmin", "0.0", "--tmax", "2.0", "--points", "3",
            ],
        )
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert columns == ["t", "S", "dS_dt"]
        np.testing.assert_allclose(rows[:, 1], 0.48, rtol=1e-10)
        assert header["model"] == "closed-1q"

    @pytest.mark.parametrize("metric", ["sld", "wy"])
    def test_a_closed_speed_prints_slope_zero(self, capsys, metric):
        """A closed model moves at constant speed, and its blocks take no
        phase: every row prints one S and a dS_dt of exactly 0, also at
        parameters where the phase once rounded S to three values."""
        argv = ["speed", "--model", "closed-1q", "--alpha", "0.2855253624007461", "--omega", "1.1107957869229923"]
        assert cli.main([*argv, "--points", "8", "--metric", metric]) == 0
        cells = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
        assert len(cells) == 8 and [row[2] for row in cells] == ["0"] * 8
        assert len({row[1] for row in cells}) == 1

    def test_markovian_qubit_value_at_unit_time(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "speed", "--model", "open-1q", "--alpha", "1", "--markovian-limit",
                "--tmin", "0.5", "--tmax", "1.5", "--points", "3",
            ],
        )
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns == ["t", "S", "dS_dt"]  # no finite S0 in the Markovian limit
        middle = rows[1]
        assert middle[0] == pytest.approx(1.0)
        assert middle[1] == pytest.approx(0.5 / math.sqrt(math.e - 1.0), rel=1e-6)

    @pytest.mark.parametrize(
        "model", [("open-1q", "--alpha", "0.6", "--gamma-ratio", "0.1"), ("open-2q-anti", "--gamma-ratio", "0.5")]
    )
    def test_rows_where_the_complement_rounds_to_zero(self, tmp_path, model):
        """At t = 0, 1 - P_t is 0, so the roots' derivative -G G'/c is 0/0
        and takes its limit sqrt(Gamma / 2); the rows are finite. Past t = 0
        the open qubit is within 1e-3 of its closed form (within 1e-9 since
        1 - P_t is stated without cancellation)."""
        code, text = run_to_file(
            tmp_path, ["speed", "--model", *model, "--tmin", "0", "--tmax", "1e-5", "--points", "5"]
        )
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns[:2] == ["t", "S"] and np.isfinite(rows).all()
        if model[0] == "open-1q":
            params = OpenSystemParams(alpha=0.6, Gamma=0.1)
            for t, speed in rows[1:, :2]:
                assert speed == pytest.approx(open_qubit_speed_analytic(params, t), rel=1e-3)

    @pytest.mark.parametrize("metric", ["sld", "wy"])
    def test_an_open_curve_starts_at_its_limit(self, capsys, metric):
        """Every row near t = 0 reads the speed at its time within 1e-9 of
        the extended-precision reference: 0.0804984 = alpha^2 sqrt(Gamma / 2)
        at t = 0, falling by 3.3e-9 by t = 1e-7, with a slope of -0.00268.
        With 1 - P_t as the float 1 - G_t^2, which cancels there, the row at
        t = 2.5e-8 reads 1.08e-9 and the slopes +-3e6."""
        argv = ["speed", "--model", "open-1q", "--alpha", "0.6", "--gamma-ratio", "0.1", "--metric", metric]
        assert cli.main([*argv, "--tmin", "0", "--tmax", "1e-7", "--points", "5"]) == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["t", "S", "dS_dt", "S_over_S0"] and len(rows) == 5
        for t, speed, slope, _ in rows:
            want = reference_speed("open-1q", 0.6, 0.1, t, MetricKind(metric)) if t else 0.36 * math.sqrt(0.05)
            assert speed == pytest.approx(want, rel=1e-9), t
            assert slope == pytest.approx(-0.00268328, rel=1e-5), t

    def test_a_tiny_width_moves_at_its_limit(self, capsys):
        """At Gamma/gamma0 = 1e-30, 1 - P_t = Gamma t^2 / 2 is far below eps
        next to P_t, and the qubit moves at sqrt(Gamma / 2) = 7.07e-16 until
        late times. With 1 - P_t as the float 1 - G_t^2, which rounds to 0,
        it reads 5e-30 and 1e-29 at t = 5 and 10."""
        argv = ["speed", "--model", "open-1q", "--gamma-ratio", "1e-30", "--tmin", "0", "--tmax", "10", "--points", "3"]
        assert cli.main(argv) == 0
        cells = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
        assert [row[1] for row in cells] == ["7.07106781187e-16"] * 3

    def test_memoryless_regime_decelerates(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "speed", "--model", "open-1q", "--alpha", "1", "--gamma-ratio", "10",
                "--tmin", "0.05", "--tmax", "10", "--points", "100",
            ],
        )
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns == ["t", "S", "dS_dt", "S_over_S0"]
        assert np.all(rows[1:-1, 2] < 0.0)

    def test_library_reproduces_emitted_values(self, tmp_path):
        from qevspeed.models import trajectory_from_key
        from qevspeed.speed import speed_at

        code, text = run_to_file(
            tmp_path,
            [
                "speed", "--model", "open-1q", "--alpha", "0.7", "--gamma-ratio", "0.5",
                "--tmin", "0.2", "--tmax", "3.0", "--points", "5",
            ],
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        traj = trajectory_from_key("open-1q", alpha=0.7, Gamma_over_gamma0=0.5)
        for t, s, *_ in rows:
            assert s == pytest.approx(speed_at(traj, t, MetricKind.SLD), rel=1e-11)



    @pytest.mark.parametrize("ratio", ["1e17", "1e200", "1e300"])
    def test_large_widths_print_the_markovian_speeds(self, tmp_path, ratio):
        grid = ["speed", "--model", "open-1q", "--tmin", "1", "--tmax", "2", "--points", "2"]
        code, text = run_to_file(tmp_path, [*grid, "--gamma-ratio", ratio])
        assert code == 0
        rows = parse_csv(text)[2]
        code, markovian = run_to_file(tmp_path, [*grid, "--markovian-limit"], name="limit.csv")
        assert code == 0
        markovian = parse_csv(markovian)[2]
        np.testing.assert_allclose(rows[:, :2], markovian[:, :2], rtol=1e-11)
        # the slopes differ by the stencil's rounding of speeds a few ulp apart, below detect's noise floor
        assert np.all(np.abs(rows[:, 2] - markovian[:, 2]) <= cli.SLOPE_NOISE_TOL * markovian[:, 1])
        assert rows[0, 1] == pytest.approx(0.381436989183, rel=1e-11)

    def test_huge_frequency_prints_the_precession_speed(self, tmp_path):
        # the derivative's squares would overflow: S = alpha beta omega = 4.8e299
        code, text = run_to_file(
            tmp_path, ["speed", "--model", "closed-1q", "--alpha", "0.6", "--omega", "1e300", "--points", "3"]
        )
        assert code == 0
        assert "# note:" not in text
        np.testing.assert_allclose(parse_csv(text)[2][:, 1], 0.6 * 0.8 * 1e300, rtol=1e-12)

    def test_overflowing_phase_keeps_the_precession_speed(self, capsys):
        """Where omega t overflows, the speeds take no phase: the blocks
        state the coherence at phase 0. Under warnings as errors, the rows
        are the closed forms, with no note and nothing on stderr."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detect = ["detect", "--model", "closed-1q", "--alpha", "0.6", "--omega", "1e308", "--time", "5"]
            assert cli.main([*detect, "--sweep", "alpha:0.1:0.9:3"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and "# note:" not in out
            rows = parse_csv(out)[2]
            alpha = rows[:, 0]
            np.testing.assert_allclose(rows[:, 1], alpha * np.sqrt(1.0 - alpha * alpha) * 1e308, rtol=1e-12)
            speed = ["speed", "--model", "closed-2q-aligned", "--alpha", "0.5", "--tmin", "0", "--tmax", "1e308"]
            assert cli.main([*speed, "--points", "3"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and "# note:" not in out
            closed_form = 2.0 * 0.5 * math.sqrt(0.75)
            np.testing.assert_allclose(parse_csv(out)[2][:, 1:], [[closed_form, 0.0]] * 3, rtol=1e-12, atol=1e-300)
            traj = trajectory_from_key("closed-2q-aligned", alpha=0.5)
            assert speed_at(traj, 1e308) == pytest.approx(closed_form, rel=1e-12)
            assert speeds_at(traj, [1e308, 1.7e308]) == pytest.approx([closed_form] * 2, rel=1e-12)


    @pytest.mark.parametrize("metric, factor", [("sld", 1.0), ("wy", math.sqrt(2.0))], ids=["sld", "wy"])
    def test_overflowing_pair_rate_keeps_the_precession_speed(self, capsys, metric, factor):
        """At omega = 1e308 the aligned pair's phase rate 2 omega overflows,
        but its speed 2 omega alpha beta (sqrt 2 times that under WY) is a
        float: every row prints it, with no note and nothing on stderr."""
        closed_form = 2.0 * (1e308 * (0.5 * math.sqrt(0.75))) * factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["speed", "--model", "closed-2q-aligned", "--alpha", "0.5", "--omega", "1e308", "--metric", metric]
            assert cli.main([*argv, "--tmax", "3", "--points", "3"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and "# note:" not in out
            np.testing.assert_allclose(parse_csv(out)[2][:, 1:], [[closed_form, 0.0]] * 3, rtol=1e-11, atol=0.0)
            traj = trajectory_from_key("closed-2q-aligned", alpha=0.5, omega=1e308)
            assert speed_at(traj, 1.0, cli.resolve_metric(metric)) == pytest.approx(closed_form, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["speed", "--model", "open-1q", "--gamma-ratio", "10", "--tmin", "1e300", "--tmax", "1e308", "--points", "2"], 2),
            (["detect", "--model", "open-1q", "--time", "1e308", "--sweep", "Gamma_over_gamma0:3:12:3"], 3),
        ],
        ids=["speed", "detect"],
    )
    def test_late_times_print_zero_speeds_without_warnings(self, capsys, argv, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = parse_csv(out)[2]
        assert len(rows) == count and (rows[:, 1:] == 0.0).all()


class TestFigureCommand:
    def test_specs_match_bound_parameters(self):
        specs = cli.FIGURES
        assert specs["fig1a"].gamma_ratio == 10.0 and specs["fig1a"].alpha == 1.0
        assert specs["fig1b"].gamma_ratio == 0.1 and specs["fig1b"].alpha == 1.0
        assert [specs[f"fig2{c}"].fixed_time for c in "abcd"] == [0.0, 1.0, 5.0, 10.0]
        assert all(specs[f"fig2{c}"].alpha == 1.0 for c in "abcd")
        assert specs["fig3a"].gamma_ratio == 10.0
        assert specs["fig3b"].gamma_ratio == 0.1
        assert specs["fig3a"].alpha == pytest.approx(SQRT_HALF)
        assert specs["fig4a"].markovian_limit and specs["fig4a"].fixed_time == 1.0
        assert specs["fig4b"].markovian_limit and specs["fig4b"].fixed_time == 10.0
        assert [specs[f].sweep for f in sorted(specs)] == ["t"] * 2 + ["Omega"] * 4 + ["t"] * 2 + ["C"] * 2

    def test_fig1b_normalized_speed_starts_at_one(self, tmp_path):
        code, text = run_to_file(tmp_path, ["figure", "fig1b", "--points", "40"])
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert columns == ["t", "S_over_S0", "sqrt_P", "dS_dt_over_S0"]
        assert header["Gamma_over_gamma0"] == "0.1"
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-3)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-3)

    def test_fig2a_slope_negative_everywhere(self, tmp_path):
        code, text = run_to_file(tmp_path, ["figure", "fig2a", "--points", "60"])
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns == ["Omega", "S", "dS_dOmega", "markovian_band"]
        assert np.all(rows[:, 2] < 0.0)
        assert np.array_equal(rows[:, 3], (rows[:, 0] < 0.5).astype(float))

    def test_fig4a_reproduces_concurrence_speed(self, tmp_path):
        code, text = run_to_file(tmp_path, ["figure", "fig4a", "--points", "20"])
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns == ["C", "S_over_gamma0", "dS_dC_over_gamma0"]
        for c, s, slope in rows:
            assert s == pytest.approx(markovian_two_qubit_speed(c, 1.0), rel=1e-11)
            assert slope > 0.0
        assert np.all(np.diff(rows[:, 1]) > 0.0)

    def test_omega_sweep_is_the_detect_sweep(self):
        figure = table(["figure", "fig2b"])
        detect = table(
            ["detect", "--model", "open-1q", "--alpha", "1", "--sweep", "Omega:0.02:3:300", "--time", "1"]
        )
        assert figure.columns[:3] == detect.columns[:3] == ["Omega", "S", "dS_dOmega"]
        assert np.array_equal(figure.rows[:, :3], detect.rows[:, :3])

    @pytest.mark.parametrize("figure_id", ["fig1b", "fig3b"])
    def test_time_curve_is_the_detect_sweep_over_s0(self, figure_id):
        spec = cli.FIGURES[figure_id]
        figure = table(["figure", figure_id])
        detect = table(
            ["detect", "--model", spec.model, "--alpha", repr(spec.alpha),
             "--gamma-ratio", repr(spec.gamma_ratio), "--sweep", "t:0.0001:30:400"]
        )
        s0 = float(speeds_at(trajectory_from_key(spec.model, alpha=spec.alpha, Gamma_over_gamma0=spec.gamma_ratio), 0.0))
        assert np.array_equal(figure.rows[:, 0], detect.rows[:, 0])
        assert np.array_equal(figure.rows[:, 1], detect.rows[:, 1] / s0)
        assert np.array_equal(figure.rows[:, -1], detect.rows[:, 2] / s0)

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        assert cli.main(["figure", "fig9z"]) == 2
        assert "valid ids" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["sld", "wy"])
    @pytest.mark.parametrize("figure_id", ["fig4a", "fig4b"])
    def test_concurrence_figure_is_the_detect_sweep(self, figure_id, metric, tmp_path):
        t = cli.FIGURES[figure_id].fixed_time
        assert run_to_file(tmp_path, ["figure", figure_id, "--metric", metric])[0] == 0
        figure = table(["figure", figure_id, "--metric", metric])
        detect = table(
            ["detect", "--model", "open-2q-aligned", "--markovian-limit", "--sweep", "C:0.005:0.999:200",
             "--time", f"{t:g}", "--metric", metric]
        )
        assert figure.columns == ["C", "S_over_gamma0", "dS_dC_over_gamma0"]
        assert np.array_equal(figure.rows, detect.rows[:, :3])
        # the rows run at alpha_from_concurrence(C), so no alpha is printed
        assert "alpha" not in dict(figure.header)
        if metric == "sld":
            concurrence, speeds = figure.rows[:, 0], figure.rows[:, 1]
            np.testing.assert_allclose(speeds, markovian_two_qubit_speed(concurrence, t), rtol=1e-13, atol=0.0)

    def test_default_grid_sizes(self, tmp_path):
        for figure_id, expected in (("fig1a", 400), ("fig2a", 300), ("fig4a", 200)):
            _, text = run_to_file(tmp_path, ["figure", figure_id], f"{figure_id}.csv")
            _, _, rows = parse_csv(text)
            assert rows.shape[0] == expected


class TestRegionsCommand:
    def test_memory_environment_table(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["regions", "--gamma-ratio", "0.1", "--n-max", "1"]
        )
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert header["regime"] == "non_markovian"
        assert columns == ["n", "tau_n", "tau_n_prime", "tau_n_dprime", "residual"]
        n, tau, tau_prime, tau_dprime, residual = rows[0]
        assert tau == pytest.approx(8.242034311692072, abs=1e-4)
        assert tau_prime == pytest.approx(14.414615682913359, abs=1e-4)
        assert tau_prime < tau_dprime
        assert abs(residual) <= 1e-10

    def test_memoryless_environment_has_no_rows(self, tmp_path):
        code, text = run_to_file(tmp_path, ["regions", "--gamma-ratio", "10"])
        assert code == 0
        header, _, rows = parse_csv(text)
        assert header["regime"] == "markovian"
        assert rows.size == 0
        assert "no memory or speedup intervals" in text

    def test_far_branches_near_the_critical_width(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["regions", "--gamma-ratio", "1.99999999", "--n-max", "300"]
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        assert rows.shape == (300, 5)
        assert np.abs(rows[:, 4]).max() <= 1e-10

    @pytest.mark.parametrize(
        "ratio, regime, count",
        [
            ("1.9999999999995", "non_markovian", 300),
            ("1.9999999999999996", "non_markovian", 300),
            ("2.0000000000005", "markovian", 0),
        ],
    )
    def test_regime_is_the_branch_speed_evaluates(self, tmp_path, ratio, regime, count):
        code, text = run_to_file(tmp_path, ["regions", "--gamma-ratio", ratio, "--n-max", "300"])
        assert code == 0
        header, _, rows = parse_csv(text)
        branch = OpenSystemParams(Gamma=float(ratio)).branch()
        assert header["regime"] == regime == {"oscillatory": "non_markovian"}.get(branch, "markovian")
        assert len(rows) == count
        if count:
            assert np.abs(rows[:, 4]).max() <= 1e-10

    @pytest.mark.parametrize("n_max", [1, 2, 300])
    @pytest.mark.parametrize("ratio", [0.05, 0.37, 1.5, 1.999])
    def test_table_is_the_report_bit_for_bit(self, ratio, n_max):
        params = OpenSystemParams(Gamma=ratio)
        report = region_report(params, n_max)
        memory, speedup = np.array(report.memory_intervals), np.array(report.speedup_intervals)
        assert speedup[:, 0].tobytes() == memory[:, 1].tobytes()
        residuals = speedup_equation(params, speedup[:, 1].copy())
        want = np.column_stack([np.arange(1.0, n_max + 1.0), memory, speedup[:, 1], residuals])
        result = table(["regions", "--gamma-ratio", repr(ratio), "--n-max", str(n_max)])
        assert result.rows.shape == (n_max, 5)
        assert result.rows.tobytes() == want.tobytes()
        assert result.notes == []

    @pytest.mark.parametrize(
        "argv, regime",
        [
            (["--gamma-ratio", "0.5", "--n-max", "0"], "non_markovian"),
            (["--markovian-limit", "--n-max", "3"], "markovian"),
            (["--gamma-ratio", "2", "--n-max", "3"], "critical"),
        ],
    )
    def test_empty_tables(self, argv, regime):
        result = table(["regions", *argv])
        assert result.rows.shape == (0, 5)
        assert dict(result.header)["regime"] == regime
        notes = [] if regime == "non_markovian" else [f"{regime} regime: no memory or speedup intervals"]
        assert result.notes == notes
        lines = cli.render_csv(result).splitlines()
        assert [line for line in lines if line.startswith("# note: ")] == [f"# note: {note}" for note in notes]
        assert lines[-1] == ",".join(result.columns)
        assert json.loads(cli.render_json(result))["rows"] == []

    def test_negative_n_max_is_a_usage_error(self, capsys):
        assert cli.main(["regions", "--gamma-ratio", "0.5", "--n-max", "-1"]) == 2
        assert "--n-max must be nonnegative, got -1" in capsys.readouterr().err

    def test_critical_ratio(self, tmp_path):
        code, text = run_to_file(tmp_path, ["regions", "--gamma-ratio", "2"])
        assert code == 0
        header, _, rows = parse_csv(text)
        assert header["regime"] == "critical"
        assert rows.size == 0

    @pytest.mark.parametrize("ratio", ["1e-30", "5e-25"])
    def test_tiny_widths_carry_memory(self, tmp_path, ratio):
        # only Gamma/gamma0 = 2 is critical, and the residual of each end is
        # within 1e-10 Gamma/gamma0, the scale of the residual itself
        code, text = run_to_file(tmp_path, ["regions", "--gamma-ratio", ratio, "--n-max", "3"])
        assert code == 0
        header, _, rows = parse_csv(text)
        assert header["regime"] == "non_markovian"
        assert rows.shape == (3, 5)
        assert np.all(rows[:, 2] < rows[:, 3])
        assert np.abs(rows[:, 4]).max() <= 1e-10 * float(ratio)


class TestDetectCommand:
    def test_aligned_pair_concurrence_sweep(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "closed-2q-aligned", "--omega", "1",
                "--sweep", "C:0.1:0.9:9",
            ],
        )
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert header["classification"] == "transverse"
        assert columns == ["C", "S", "dS_dC", "speedup"]
        np.testing.assert_allclose(rows[:, 2], 1.0, atol=1e-6)
        assert np.all(rows[:, 3] == 1.0)

    def test_markovian_concurrence_sweep_is_the_closed_form(self):
        """The aligned pair's speeds at t = 10 match ``markovian_two_qubit_speed``
        in every row, also at small C, where its eigenvalues alpha^2 P (1 - P)
        fall below 1e-12."""
        argv = ["detect", "--model", "open-2q-aligned", "--markovian-limit", "--sweep", "C:0.005:0.999:200"]
        result = table([*argv, "--time", "10"])
        concurrence, speeds = result.rows[:, 0], result.rows[:, 1]
        np.testing.assert_allclose(speeds, markovian_two_qubit_speed(concurrence, 10.0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "sweep, echoed",
        [("C:0.1:0.9:3", False), ("alpha:0.1:0.9:3", False), ("t:1:2:3", True)],
    )
    def test_header_echoes_alpha_only_where_the_rows_use_it(self, sweep, echoed):
        # a C sweep evaluates each row at alpha_from_concurrence(C), so --alpha
        # is not a parameter of its rows
        argv = [
            "detect", "--model", "open-2q-aligned", "--gamma-ratio", "1", "--alpha", "0.3",
            "--sweep", sweep, "--time", "1",
        ]
        header = dict(table(argv).header)
        assert ("alpha" in header) is echoed
        if echoed:
            assert header["alpha"] == "0.3"

    @pytest.mark.parametrize("bath", [[], ["--markovian-limit"], ["--gamma-ratio", "0.5"]])
    @pytest.mark.parametrize("sweep", ["t:1:2:2", "alpha:0.1:0.9:3"])
    def test_closed_header_echoes_omega_and_no_bath(self, sweep, bath, tmp_path):
        """A closed model precesses at omega and has no bath: the header
        echoes the one and not the other, so the rows reproduce from it."""
        argv = ["detect", "--model", "closed-1q", "--alpha", "0.6", "--omega", "2.5", *bath, "--sweep", sweep]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        header, _, rows = parse_csv(text)
        assert header["omega"] == "2.5"
        assert "markovian_limit" not in header and "Gamma_over_gamma0" not in header
        omega = float(header["omega"])
        if sweep.startswith("t:"):
            traj = trajectory_from_key("closed-1q", alpha=float(header["alpha"]), omega=omega)
            want = [speed_at(traj, t) for t in rows[:, 0]]
        else:
            t = float(header["omega_t"])
            want = [speed_at(trajectory_from_key("closed-1q", alpha=a, omega=omega), t) for a in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 1], want, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "model, bath, keys",
        [
            ("closed-1q", [], ["omega_t", "omega"]),
            ("closed-2q-aligned", ["--gamma-ratio", "0.5"], ["omega_t", "omega"]),
            ("open-1q", ["--gamma-ratio", "0.5"], ["gamma0_t", "Gamma_over_gamma0"]),
            ("open-2q-aligned", ["--markovian-limit"], ["gamma0_t", "markovian_limit"]),
        ],
    )
    def test_fixed_time_is_named_by_its_unit(self, model, bath, keys, fmt, tmp_path):
        """A closed model's times are in units of 1/omega and an open
        model's in units of 1/gamma0: a transverse sweep's fixed time is
        ``omega_t`` or ``gamma0_t``, and the rows reproduce from the header.
        An open model's header is what it was."""
        argv = ["detect", "--model", model, "--omega", "2.5", *bath, "--time", "3.5", "--sweep", "alpha:0.1:0.9:5"]
        code, text = run_to_file(tmp_path, [*argv, "--format", fmt])
        assert code == 0
        if fmt == "json":
            payload = json.loads(text)
            header, rows = payload["config"], np.array(payload["rows"])
        else:
            header, _, rows = parse_csv(text)
        base = ["artifact", "command", "model", "metric", "classification", "sweep"]
        assert list(header) == base + keys
        if model.startswith("closed"):
            t, params = float(header["omega_t"]), {"omega": float(header["omega"])}
        elif "markovian_limit" in header:
            t, params = float(header["gamma0_t"]), {"markovian_limit": header["markovian_limit"] == "true"}
        else:
            t, params = float(header["gamma0_t"]), {"Gamma_over_gamma0": float(header["Gamma_over_gamma0"])}
        want = [speed_at(trajectory_from_key(model, alpha=a, **params), t) for a in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 1], want, rtol=1e-11, atol=0.0)
        assert dict(table(["figure", "fig2b"]).header)["gamma0_t"] == "1"

    @pytest.mark.parametrize("sweep", ["alpha:0.01:0.99:50", "C:0.01:0.99:50"])
    def test_anti_pair_transverse_slopes_are_exactly_zero(self, sweep, tmp_path):
        """The damped anti pair's speed is |G'_t| / c_t at any alpha, so a sweep
        of alpha or of C prints a slope of exactly 0 on every row."""
        argv = ["detect", "--model", "open-2q-anti", "--gamma-ratio", "0.37", "--time", "5.1", "--sweep", sweep]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        cells = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert len(cells) == 50
        assert {row[2] for row in cells} == {row[3] for row in cells} == {"0"}

    def test_anti_aligned_pair_is_insensitive(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "closed-2q-anti", "--omega", "1",
                "--sweep", "C:0.1:0.9:9",
            ],
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        np.testing.assert_allclose(rows[:, 1], 0.0, atol=1e-10)
        assert np.all(rows[:, 3] == 0.0)

    def test_longitudinal_classification(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "open-1q", "--alpha", "1", "--gamma-ratio", "10",
                "--sweep", "t:0.5:5.0:10",
            ],
        )
        assert code == 0
        header, _, rows = parse_csv(text)
        assert header["classification"] == "longitudinal"
        assert np.all(rows[:, 3] == 0.0)  # memoryless regime never speeds up

    def test_omega_sweep_finds_markovian_band_speedup(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "open-1q", "--alpha", "1", "--gamma-ratio", "1",
                "--sweep", "Omega:0.05:0.45:30", "--time", "1.0",
            ],
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        assert np.any(rows[:, 3] == 1.0)

    def test_constant_speed_time_sweep_flags_nothing(self, tmp_path):
        # closed-model slopes in time are rounding noise
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "closed-2q-aligned", "--metric", "wy",
                "--alpha", "0.72", "--sweep", "t:0.3:29.7:30",
            ],
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        assert np.all(np.abs(rows[:, 2]) <= 0.1 * cli.SLOPE_NOISE_TOL * rows[:, 1])
        assert np.all(rows[:, 3] == 0.0)

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda metric: metric.value)
    @pytest.mark.parametrize(
        "key, name", [("closed-1q", "alpha"), ("closed-2q-aligned", "alpha"), ("closed-2q-aligned", "C")]
    )
    def test_one_sided_rows_stand_clear_of_the_noise_floor(self, key, name, metric):
        """At alpha (or C) = 0 and 1 the stencil is one-sided, (3, 4, 1) / 2h.
        Against exact differences of the same stencil's speeds, its rounding
        stays below SLOPE_NOISE_TOL |S| / 20 where S is not 0 (measured:
        1 / 33, at C = 1), and where S is 0, the slope is more than 1e12
        times its rounding: the flag reads its sign, 1 where the speed rises
        off a state at rest."""
        recorded = {}

        def evaluate(values):
            alphas = values if name == "alpha" else alpha_from_concurrence(values)
            recorded["nodes"] = values
            return speeds_at(trajectory_from_key(key, alpha=alphas, omega=1.3), 0.7, metric)

        speeds, slopes = speedup_measures(evaluate, [0.0, 1.0], (0.0, 1.0))
        for row, toward in ((0, 1), (1, -1)):
            nodes = recorded["nodes"][:, row].tolist()
            exact = [exact_speed(key, Decimal(x) if name == "alpha" else exact_alpha(x), None, 0.7, metric, 1.3)
                     for x in nodes]
            h = Decimal(float(stencil_step(nodes[0])))
            stencil = toward * (4 * (exact[1] - exact[0]) - (exact[2] - exact[0])) / (2 * h)
            rounding = abs(float(Decimal(float(slopes[row])) - stencil))
            if speeds[row]:
                assert rounding <= cli.SLOPE_NOISE_TOL * speeds[row] / 20.0
            else:
                assert rounding * 1e12 <= abs(slopes[row])
        flags = slopes > cli.SLOPE_NOISE_TOL * np.abs(speeds)
        assert flags.tolist() == [True, name == "C"]  # a closed aligned pair moves at omega C

    @pytest.mark.parametrize("key", [key for key in MODEL_KEYS if key.startswith("closed")])
    @pytest.mark.parametrize("metric", ["sld", "wy"])
    def test_a_closed_time_sweep_prints_slope_and_flag_zero(self, capsys, key, metric):
        argv = ["detect", "--model", key, "--metric", metric, "--alpha", "0.2855253624007461"]
        assert cli.main([*argv, "--omega", "1.1107957869229923", "--sweep", "t:0.3:29.7:30"]) == 0
        cells = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
        assert len(cells) == 30 and all(row[2:] == ["0", "0"] for row in cells)

    def test_memory_time_sweep_flags_its_speedup_interval(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "open-1q", "--alpha", "1", "--gamma-ratio", "0.1",
                "--sweep", "t:1:30:59",
            ],
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        t = rows[:, 0]
        intervals = speedup_boundaries(OpenSystemParams(alpha=1.0, Gamma=0.1), 2)
        inside = np.any([(t > start) & (t < end) for start, end in intervals], axis=0)
        assert inside[t < 25.0].sum() >= 4 and inside[t > 25.0].any()
        np.testing.assert_array_equal(rows[:, 3], np.where(inside, 1.0, 0.0))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "closed-1q", "--sweep", "alpha:0.1:0.9:3", "--time", "60"],
            ["--model", "closed-1q", "--omega", "2", "--sweep", "alpha:0.1:0.9:3", "--time", "30"],
            ["--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--sweep", "C:0.1:0.9:3", "--time", "60"],
            ["--model", "open-1q", "--sweep", "Omega:0.5:2:3", "--time", "60"],
            ["--model", "open-1q", "--sweep", "Gamma_over_gamma0:0.5:2:3", "--time", "60"],
        ],
    )
    def test_transverse_sweep_past_the_default_horizon(self, tmp_path, argv):
        code, text = run_to_file(tmp_path, ["detect", *argv])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert rows.shape == (3, 4) and np.isfinite(rows).all()

    def test_time_sweep_runs_past_t_50(self, capsys):
        # every model is defined for all t >= 0, whatever --time (default 1)
        argv = ["detect", "--model", "open-1q", "--gamma-ratio", "0.5", "--sweep", "t:1:60:5"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = parse_csv(out)[2]
        np.testing.assert_array_equal(rows[:, 0], np.linspace(1.0, 60.0, 5))
        params = OpenSystemParams(alpha=1.0, Gamma=0.5)
        for t, s, *_ in rows:
            assert s == pytest.approx(open_qubit_speed_analytic(params, t), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "model, sweep",
        [("open-2q-aligned", "C:0.01:0.99:3"), ("open-1q", "alpha:0.01:0.99:3"), ("open-2q-anti", "alpha:0.01:0.99:3")],
    )
    def test_divergent_rows_carry_a_note(self, model, sweep, fmt, tmp_path):
        """In the Markovian limit the speed diverges at gamma0_t = 0: every row
        prints S = inf with its slope and flag nan, and one note says why. At
        gamma0_t = 1 the rows are finite, with no note."""
        argv = ["detect", "--model", model, "--markovian-limit", "--sweep", sweep, "--format", fmt]
        note = "slope undefined: S diverges at gamma0_t = 0"
        code, text = run_to_file(tmp_path, [*argv, "--time", "0"])
        assert code == 0
        if fmt == "json":
            payload = json.loads(text)
            rows, notes = np.array(payload["rows"]), payload["notes"]
        else:
            _, _, rows = parse_csv(text)
            notes = [line.removeprefix("# note: ") for line in text.splitlines() if line.startswith("# note: ")]
        assert np.isinf(rows[:, 1]).all() and np.isnan(rows[:, 2:]).all()
        assert notes == [note]
        later = table([*argv, "--time", "1"])
        assert np.isfinite(later.rows).all() and later.notes == []

    def test_unknown_sweep_parameter(self, capsys):
        code = cli.main(
            ["detect", "--model", "open-1q", "--gamma-ratio", "1", "--sweep", "beta:0:1:5"]
        )
        assert code == 2
        assert "valid" in capsys.readouterr().err

    def test_concurrence_sweep_needs_two_qubits(self, capsys):
        code = cli.main(
            ["detect", "--model", "closed-1q", "--sweep", "C:0.1:0.9:5"]
        )
        assert code == 2
        assert "two-qubit" in capsys.readouterr().err


# detect arguments whose grid reaches its parameter's domain end: t = 0, alpha or C = 0 and 1, and Omega and
# Gamma/gamma0 within h of 0
DOMAIN_ENDS = [
    (["--model", "open-1q", "--gamma-ratio", "0.5"], "t:0:5:3"),
    (["--model", "open-1q", "--gamma-ratio", "0.5"], "alpha:0:1:3"),
    (["--model", "open-1q", "--alpha", "0.6", "--time", "1"], "Omega:1e-6:1:3"),
    ([*OPEN_AT_ONE], "alpha:0:1:5"),
    (["--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--time", "2"], "C:0:1:5"),
    (["--model", "open-2q-anti", "--time", "2"], "Gamma_over_gamma0:1e-6:3:4"),
    (["--model", "open-2q-aligned", "--markovian-limit"], "t:0:2:3"),
    (["--model", "open-1q", "--markovian-limit", "--time", "0"], "alpha:0:1:3"),
    (["--model", "closed-1q"], "t:0:5:3"),
    (["--model", "closed-1q", "--time", "1"], "alpha:0:1:5"),
    (["--model", "closed-2q-aligned", "--time", "1"], "C:0:1:5"),
    (["--model", "closed-2q-anti", "--time", "1"], "alpha:0:1:3"),
]

# (detect arguments, sweep, the speed of the swept value as a Decimal under a metric) with one-sided rows where
# the derivative is finite
ONE_SIDED = [
    (["--model", "open-1q", "--alpha", "0.6", "--gamma-ratio", "0.1"], "t:0:3e-5:7",
     lambda x, metric: exact_speed("open-1q", 0.6, 0.1, x, metric)),
    (["--model", "open-1q", "--alpha", "0.6", "--gamma-ratio", "5"], "t:0:1:3",
     lambda x, metric: exact_speed("open-1q", 0.6, 5.0, x, metric)),
    (["--model", "open-2q-aligned", "--alpha", "0.7", "--gamma-ratio", "0.5"], "t:0:1:3",
     lambda x, metric: exact_speed("open-2q-aligned", 0.7, 0.5, x, metric)),
    (["--model", "open-2q-anti", "--gamma-ratio", "0.5"], "t:0:1:3",
     lambda x, metric: exact_speed("open-2q-anti", 1.0, 0.5, x, metric)),
    (["--model", "closed-1q", "--omega", "1.3", "--time", "1"], "alpha:0:0.5:3",
     lambda x, metric: exact_speed("closed-1q", x, None, 1.0, metric, omega=1.3)),
    (["--model", "closed-2q-aligned", "--time", "1"], "C:0:1:3",
     lambda x, metric: exact_speed("closed-2q-aligned", exact_alpha(x), None, 1.0, metric)),
    (["--model", "open-1q", "--gamma-ratio", "0.5", "--time", "1"], "alpha:0:1:3",
     lambda x, metric: exact_speed("open-1q", x, 0.5, 1.0, metric)),
    (["--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--time", "2"], "alpha:0:1:3",
     lambda x, metric: exact_speed("open-2q-aligned", x, 0.5, 2.0, metric)),
    (["--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--time", "2"], "C:0:0.5:3",
     lambda x, metric: exact_speed("open-2q-aligned", exact_alpha(x), 0.5, 2.0, metric)),
    (["--model", "open-1q", "--alpha", "0.6", "--time", "1"], "Omega:1e-6:1:3",
     lambda x, metric: exact_speed("open-1q", 0.6, 1 / x, 1.0, metric)),
    (["--model", "open-2q-aligned", "--alpha", "0.6", "--time", "1"], "Omega:1e-6:1:3",
     lambda x, metric: exact_speed("open-2q-aligned", 0.6, 1 / x, 1.0, metric)),
]

# (detect arguments, sweep) for ``speed_sweep``: every parameter, with grids from its domain ends and divergent rows
LIBRARY_SWEEPS = [
    (["--model", "closed-1q", "--alpha", "0.6"], "t:0:7:9"),
    (["--model", "open-1q", "--gamma-ratio", "0.5"], "t:0:7:9"),
    (["--model", "open-2q-aligned", "--alpha", "0.7", "--markovian-limit"], "t:0:7:9"),
    (["--model", "open-2q-anti", "--gamma-ratio", "3", "--metric", "wy"], "t:0:7:9"),
    (["--model", "open-1q", "--markovian-limit"], "t:1e-05:1:3"),
    (["--model", "open-1q", "--gamma-ratio", "0.5", "--time", "1"], "alpha:0:1:5"),
    (["--model", "open-1q", "--markovian-limit", "--time", "0"], "alpha:1e-05:1:3"),
    (["--model", "closed-2q-anti", "--time", "1", "--metric", "wy"], "alpha:0:1:3"),
    (["--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--time", "2"], "C:0:1:5"),
    (["--model", "closed-2q-aligned", "--omega", "1.3", "--time", "1"], "C:0:1:5"),
    (["--model", "open-1q", "--alpha", "0.6", "--time", "1"], "Omega:1e-06:1:3"),
    (["--model", "open-2q-aligned", "--alpha", "0.6", "--time", "0", "--metric", "wy"], "Omega:1e-06:3:4"),
    (["--model", "open-2q-anti", "--time", "2"], "Gamma_over_gamma0:1e-06:3:4"),
    (["--model", "open-1q", "--alpha", "0.6", "--time", "1"], "Gamma_over_gamma0:1e-06:1:3"),
]


class TestDomainEnds:
    """Each sweep parameter has a domain: t in [0, inf), alpha and C in
    [0, 1], Omega and Gamma/gamma0 in (0, inf). A grid inside it exits 0,
    and where a row's xi - h or xi + h would leave it, its slope stencil
    turns one-sided."""

    @pytest.mark.parametrize("metric", ["sld", "wy"])
    @pytest.mark.parametrize("model, sweep", DOMAIN_ENDS, ids=[f"{model[1]}-{sweep}" for model, sweep in DOMAIN_ENDS])
    def test_a_sweep_to_its_domain_end_exits_0(self, capsys, model, sweep, metric):
        """Every row is printed; a row that is not finite has a note, and
        only a divergent speed is infinite, with slope and flag nan."""
        assert cli.main(["detect", *model, "--metric", metric, "--sweep", sweep]) == 0
        out = capsys.readouterr().out
        _, columns, rows = parse_csv(out)
        assert columns[0] == sweep.split(":")[0] and len(rows) == int(sweep.split(":")[3])
        notes = [line for line in out.splitlines() if line.startswith("# note: ")]
        divergent = np.isinf(rows[:, 1])
        assert not np.isinf(rows[:, 2:]).any() and np.isnan(rows[divergent, 2:]).all()
        assert bool(notes) == (not np.isfinite(rows).all())
        at = "t" if sweep.startswith("t:") else "gamma0_t"
        assert notes == [f"# note: slope undefined: S diverges at {at} = 0"] * bool(notes)

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda metric: metric.value)
    @pytest.mark.parametrize(
        "model, sweep, speed_of", ONE_SIDED, ids=[f"{model[1]}-{sweep}" for model, sweep, _ in ONE_SIDED]
    )
    def test_one_sided_rows_match_the_derivative(self, model, sweep, speed_of, metric):
        """A one-sided row's slope is the derivative of the reference speed
        (a ``decimal`` central difference) within 1e-8 relative."""
        name = sweep.split(":")[0]
        result = table(["detect", *model, "--metric", metric.value, "--sweep", sweep])
        lo, hi = _SWEEPS[name][0]
        checked = 0
        for xi, _, slope, _ in result.rows.tolist():
            h = float(stencil_step(xi))
            if lo <= xi - h and xi + h <= hi:
                continue
            want = reference_slope(lambda x: speed_of(x, metric), xi, (lo, hi))
            assert slope == pytest.approx(want, rel=1e-8, abs=0.0), xi
            checked += 1
        assert checked

    @pytest.mark.parametrize("key", [key for key in MODEL_KEYS if key.startswith("closed")] + ["open-2q-anti"])
    @pytest.mark.parametrize("metric", ["sld", "wy"])
    def test_a_constant_speed_has_slope_zero_on_one_sided_rows(self, capsys, key, metric):
        """One-sided slopes are differences from S(xi): a closed model's
        time slope, at t = 0 and at the largest float time, and the anti
        pairs' alpha and C slopes print exactly 0 on every row."""
        argvs, bath = [], ["--gamma-ratio", "0.5"] if key.startswith("open") else []
        if key.startswith("closed"):
            argvs += [["speed", "--tmin", "1e308", "--tmax", "1.7976931348623157e308", "--points", "2"],
                      ["detect", "--sweep", "t:0:3e-5:4"]]
        if key.endswith("anti"):
            argvs += [["detect", "--time", "2", "--sweep", f"{name}:0:1:5"] for name in ("alpha", "C")]
        for argv in argvs:
            assert cli.main([*argv, "--model", key, "--metric", metric, *bath]) == 0
            cells = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
            assert {row[2] for row in cells} == {"0"}, argv

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_markovian_speed_from_t_0_has_a_nan_slope_and_a_note(self, tmp_path, fmt):
        """The Markovian speed diverges at t = 0: ``speed`` prints S = inf
        with a nan slope there and one note, as ``detect`` does."""
        argv = ["speed", "--model", "open-1q", "--markovian-limit", "--tmin", "0", "--format", fmt]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        if fmt == "json":
            payload = json.loads(text)
            rows, notes = np.array(payload["rows"]), payload["notes"]
        else:
            _, _, rows = parse_csv(text)
            notes = [line.removeprefix("# note: ") for line in text.splitlines() if line.startswith("# note: ")]
        assert notes == ["slope undefined: S diverges at t = 0"]
        assert math.isinf(rows[0, 1]) and math.isnan(rows[0, 2])
        assert np.isfinite(rows[1:]).all() and (rows[1:, 2] < 0.0).all()

    @pytest.mark.parametrize(
        "model, sweep", LIBRARY_SWEEPS,
        ids=[model[1] if sweep == "t:0:7:9" else f"{model[1]}-{sweep}" for model, sweep in LIBRARY_SWEEPS],
    )
    def test_speed_is_the_detect_time_sweep(self, model, sweep):
        """``speed_sweep``, called with the parameters that ``detect``'s
        header echoes, gives its grid, S and slope bit for bit, and diverges
        where the table has a note. ``speed``'s t, S and dS_dt are
        ``detect``'s t sweep on the same grid, bit for bit, and its slopes do
        not depend on the grid: the last row reads the same bytes at 3
        points and at 400."""
        detect = table(["detect", *model, "--sweep", sweep])
        header = dict(detect.header)

        def value(key, default=None):
            return float(header[key]) if key in header else default

        name, lo, hi, n = header["sweep"].split(":")
        library = speed_sweep(
            header["model"], name, np.linspace(float(lo), float(hi), int(n)), MetricKind(header["metric"]),
            time=value("gamma0_t", value("omega_t")), alpha=value("alpha", 1.0), omega=value("omega", 1.0),
            Gamma_over_gamma0=value("Gamma_over_gamma0"), markovian_limit="markovian_limit" in header,
        )
        columns = np.column_stack([library.grid, library.speeds, library.slopes])
        assert columns.tobytes() == detect.rows[:, :3].tobytes()
        assert library.diverges == bool(detect.notes)
        if name != "t":
            return
        speed = table(["speed", *model, "--tmin", lo, "--tmax", hi, "--points", n])
        assert speed.rows[:, :3].tobytes() == detect.rows[:, :3].tobytes()
        assert speed.notes == detect.notes
        coarse, fine = (table(["speed", *model, "--tmin", "0.5", "--tmax", hi, "--points", k]) for k in ("3", "400"))
        assert coarse.rows[-1, :3].tobytes() == fine.rows[-1, :3].tobytes()

    @pytest.mark.parametrize("tmin, tmax", [(1e-5, 1.0), (0.0, 2e-5)])
    def test_speed_curve_keeps_a_markovian_stencil_off_t_0(self, tmin, tmax):
        """``speed_curve`` gives ``speed``'s S and dS_dt bit for bit in the
        Markovian limit, where its row at t = h is one-sided and finite."""
        argv = ["speed", "--model", "open-1q", "--markovian-limit", "--tmin", repr(tmin), "--tmax", repr(tmax)]
        speed = table([*argv, "--points", "3"])
        curve = speed_curve(trajectory_from_key("open-1q", markovian_limit=True), speed.rows[:, 0])
        assert np.column_stack([curve.speeds, curve.slopes]).tobytes() == speed.rows[:, 1:3].tobytes()
        assert np.isfinite(curve.slopes[curve.times == 1e-5]).all()


class TestConfigAndOutput:
    def test_determinism(self, tmp_path):
        args = ["figure", "fig2b", "--points", "25"]
        _, first = run_to_file(tmp_path, args, "a.csv")
        _, second = run_to_file(tmp_path, args, "b.csv")
        assert first == second

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "model": "closed-1q",
                    "alpha": 0.6,
                    "omega": 1.0,
                    "tmin": 0.0,
                    "tmax": 2.0,
                    "points": 3,
                }
            )
        )
        code, text = run_to_file(
            tmp_path, ["speed", "--config", str(config), "--alpha", "0.8"]
        )
        assert code == 0
        header, _, rows = parse_csv(text)
        # flag overrides the file: alpha = 0.8 gives S = 0.8 * 0.6 = 0.48
        assert header["alpha_abs"] == "0.8"
        np.testing.assert_allclose(rows[:, 1], 0.48, rtol=1e-10)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "closed-1q", "alfa": 0.6}))
        assert cli.main(["speed", "--config", str(config)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, code",
        [
            ({"markovian_limit": "false"}, 2),
            ({"alpha": "0.5"}, 2),
            ({"points": 2.5}, 2),
            ({"n_max": True}, 2),
            ({"gamma_ratio": False}, 2),
            ({"format": None}, 2),
            ({"out": 1}, 2),
            ({"markovian_limit": False, "n_max": 2}, 0),
            ({"gamma_ratio": 1, "alpha": 0.5, "tmin": 0}, 0),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, values, code):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"gamma_ratio": 0.5, **values}))
        assert cli.main(["regions", "--config", str(config)]) == code
        if code:
            key = next(iter(values))
            assert f"error: config key '{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["alpha", "omega", "gamma_ratio", "tmin", "tmax", "time"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, key, value, source):
        command = ["detect", "--sweep", "alpha:0.1:0.9:3"] if key == "time" else ["speed"]
        argv = [*command, "--model", "open-1q"]
        if source == "flag":
            flag = "--" + key.replace("_", "-")
            argv += ["--gamma-ratio", "0.5", f"{flag}={value!r}"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"gamma_ratio": 0.5, key: value}))
            argv += ["--config", str(config)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a finite number, got {value!r}")
        assert ("--markovian-limit" in err) == (key == "gamma_ratio")

    @pytest.mark.parametrize(
        "key, argv, config",
        [
            ("n_max", ["--gamma-ratio", "0.5", "--n-max", str(HUGE)], None),
            ("alpha", [], {"alpha": HUGE}),
            ("time", [], {"time": HUGE}),
            ("n_max", [], {"n_max": HUGE, "gamma_ratio": 0.5}),
            ("gamma_ratio", [], {"gamma_ratio": -HUGE}),
        ],
    )
    def test_integers_beyond_the_float_range_rejected(self, tmp_path, capsys, key, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert cli.main(["regions", *argv]) == 2
        assert capsys.readouterr().err == f"error: {key} must fit in a float, got an integer of 401 digits\n"

    @pytest.mark.parametrize(
        "key, argv",
        [
            ("points", ["speed", "--model", "closed-1q", "--points", "100000000000000000000"]),
            ("points", ["figure", "fig1a", "--points", "100000000000000000000"]),
            ("n_max", ["regions", "--gamma-ratio", "0.5", "--n-max", "100000000000000000000"]),
            ("sweep points", ["detect", "--model", "closed-1q", "--sweep", "t:0.1:1:100000000000000000000"]),
        ],
    )
    def test_counts_too_large_to_allocate_rejected(self, capsys, key, argv):
        """A count that fits in a float but that numpy refuses to allocate is
        a usage error naming its key, with numpy's reason."""
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be small enough to allocate, got 100000000000000000000 (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sweep", ["alpha:0.1:inf:3", "alpha:-inf:0.5:3", "t:nan:2:3"])
    def test_non_finite_sweep_bounds_rejected(self, capsys, sweep):
        assert cli.main(["detect", "--model", "open-1q", "--gamma-ratio", "0.5", "--sweep", sweep]) == 2
        assert "sweep bounds must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [".", "missing/out.csv"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert cli.main(["regions", "--gamma-ratio", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_json_mirrors_csv(self, tmp_path):
        args = ["regions", "--gamma-ratio", "0.1", "--n-max", "2"]
        _, csv_text = run_to_file(tmp_path, args, "r.csv")
        code, json_text = run_to_file(tmp_path, [*args, "--format", "json"], "r.json")
        assert code == 0
        payload = json.loads(json_text)
        _, columns, rows = parse_csv(csv_text)
        assert payload["columns"] == columns
        np.testing.assert_allclose(np.array(payload["rows"]), rows, rtol=1e-12)

    def test_stdout_default(self, capsys):
        assert cli.main(["speed", "--model", "closed-1q", "--points", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# artifact: qevspeed")

    def test_version_header_present(self, tmp_path):
        _, text = run_to_file(tmp_path, ["regions", "--gamma-ratio", "10"])
        assert "qevspeed v" in text


class TestErrors:
    def test_unknown_model_lists_keys(self, capsys):
        assert cli.main(["speed", "--model", "open-9q"]) == 2
        err = capsys.readouterr().err
        assert "closed-1q" in err and "open-2q-anti" in err

    def test_rejected_metric(self, capsys):
        assert cli.main(["speed", "--model", "closed-1q", "--metric", "rld"]) == 2
        assert "boundary" in capsys.readouterr().err

    def test_open_model_needs_width(self, capsys):
        assert cli.main(["speed", "--model", "open-1q"]) == 2
        assert "Gamma_over_gamma0" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert cli.main([]) == 2

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["regions", "--config", "missing.json"], "cannot read config file"),
            (["regions", "--config", "bad.json"], "not valid JSON"),
            (["regions", "--config", "list.json"], "must hold a JSON object"),
            (["regions", "--config", "xml.json"], "unknown format 'xml'"),
            (["speed"], "--model is required"),
            (["regions"], "needs --gamma-ratio or --markovian-limit"),
            (["speed", "--model", "closed-1q", "--points", "1"], "grid needs at least 2 points"),
            (["speed", "--model", "closed-1q", "--tmin", "2", "--tmax", "1"], "tmin must be below tmax"),
            (["speed", "--model", "closed-1q", "--tmin", "-1"], "tmin must be nonnegative"),
            (["figure", "fig1a", "--points", "1"], "grid needs at least 2 points"),
            (["regions", "--gamma-ratio", "0.5", "--n-max", "-1"], "--n-max must be nonnegative"),
            (["detect", "--model", "closed-1q"], "detect needs --sweep"),
            (["detect", *OPEN_AT_ONE, "--sweep", "alpha:0:1"], "malformed sweep"),
            (["detect", *OPEN_AT_ONE, "--sweep", "alpha:a:1:5"], "malformed sweep"),
            (["detect", *OPEN_AT_ONE, "--sweep", "alpha:0.1:0.9:1"], "at least 2 points"),
            (["detect", *OPEN_AT_ONE, "--sweep", "alpha:0.9:0.1:5"], "min must be below max"),
            (["detect", *OPEN_AT_ONE, "--sweep", "alpha:-0.1:0.5:3"], "alpha sweep left [0, 1] at -0.1"),
            (
                ["detect", "--model", "closed-1q", "--time", "1", "--sweep", "Omega:0.5:2:5"],
                "needs an open-system model",
            ),
            (
                ["detect", "--model", "open-1q", "--markovian-limit", "--time", "1",
                 "--sweep", "Gamma_over_gamma0:0.5:2:5"],
                "drop --markovian-limit",
            ),
            (["detect", *OPEN_AT_ONE, "--sweep", "Omega:0:2:5"], "Omega must stay positive"),
            (["detect", "--model", "open-2q-aligned", "--gamma-ratio", "0.5", "--sweep", "C:0.5:1.5:3"],
             "C sweep left [0, 1] at 1.5"),
            (["detect", *OPEN_AT_ONE, "--sweep", "t:-1:1:3"], "t = -1 outside trajectory range [0, inf)"),
            (["detect", *OPEN_AT_ONE, "--sweep", "Gamma_over_gamma0:-2:2:5"],
             "Gamma/gamma0 must stay positive, got -2"),
        ],
    )
    def test_usage_error_names_its_cause(self, tmp_path, capsys, argv, fragment):
        files = {"bad.json": "{bad", "list.json": "[1]", "xml.json": '{"format": "xml", "gamma_ratio": 0.5}'}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        assert cli.main(argv) == 2
        assert fragment in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            [
                "detect", "--model", "open-1q", "--gamma-ratio", "0.3",
                "--sweep", "alpha:0.2:0.8:3", "--time", "2",
            ],
        )
        assert code == 0
        assert parse_csv(text)[0]["Gamma_over_gamma0"] == "0.3"
        code, text = run_to_file(
            tmp_path, ["detect", "--model", "closed-1q", "--sweep", "t:0.1:1:3"]
        )
        assert code == 0
        header, _, _ = parse_csv(text)
        assert "Gamma_over_gamma0" not in header
        assert header["alpha"] == "1"

    def test_usage_error_after_success(self, tmp_path, capsys):
        assert run_to_file(tmp_path, ["regions", "--gamma-ratio", "0.5"])[0] == 0
        assert cli.main(["speed", "--points", "many"]) == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_version_after_success(self, tmp_path, capsys):
        assert run_to_file(tmp_path, ["regions", "--gamma-ratio", "0.5"])[0] == 0
        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == cli.__version__

    def test_a_command_line_is_parsed_once(self, monkeypatch, capsys):
        """A command line that starts with a command name goes to that
        command's parser alone, also where ``main()`` reads ``sys.argv``, as
        the console script of ``[project.scripts]`` calls it."""
        argv = ["regions", "--gamma-ratio", "0.5", "--n-max", "2"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(cli.build_parser(), "parse_known_args", None)  # the top level's
        monkeypatch.setattr("sys.argv", ["qevspeed", *argv])
        assert cli.main() == 0
        assert capsys.readouterr() == expected
        assert cli.main(argv) == 0


PARITY_ARGVS = [
    *([command, "-h"] for command in ("speed", "figure", "regions", "detect")),
    ["speed", "--bogus"],
    ["figure", "fig1a", "--bogus"],
    ["figure", "fig1a", "extra"],
    ["figure", "--bogus"],
    ["regions", "--bogus", "1", "--n-max", "2", "-x"],
    ["detect", "--bogus=1"],
    ["speed", "--model"],
    ["speed", "--points", "many"],
    ["regions", "--format", "xml"],
    ["figure", "fig1a", "--gamma", "0.5"],
    ["regions", "--gamma", "0.5"],
    ["speed", "--version"],
    ["--version"],
    ["-h"],
    [],
    ["spread"],
    ["--", "speed", "--model", "closed-1q"],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_main_parses_as_the_top_level_parser(argv, monkeypatch, capsys):
    """``main`` parses a command with that command's own parser, and the top
    level parses the rest. Where the top level's ``parse_args`` exits, ``main``
    returns its exit code with its stdout and stderr; where it returns,
    ``main`` runs the command on an equal namespace."""
    try:
        expected = vars(cli.build_parser().parse_args(argv))
        code = None
    except SystemExit as exc:
        expected, code = None, int(exc.code or 0)
    out, err = capsys.readouterr()

    parsed = []
    merge_config = cli.merge_config

    def record(args):
        parsed.append(vars(args))
        return merge_config(args)

    monkeypatch.setattr(cli, "merge_config", record)
    if code is None:
        assert cli.main(argv) == 0
        assert parsed == [expected] and capsys.readouterr().err == ""
    else:
        assert cli.main(argv) == code
        assert capsys.readouterr() == (out, err) and parsed == []

