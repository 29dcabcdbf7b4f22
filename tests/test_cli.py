"""End-to-end tests of the command line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feederlimits
from feederlimits import bundled_feeder_path, cli
from feederlimits.cli import main
from feederlimits.errors import (
    ConvergenceError,
    DegenerateImpedanceError,
    DomainError,
    FeederFileError,
    FeederLimitsError,
    NoFeasiblePointError,
    NoSolutionError,
    ThermalLimitError,
    TopologyError,
)

FEEDER = str(bundled_feeder_path())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestLimitsCommand:
    def test_inline_marginal_point(self, capsys):
        code, report = run_json(
            capsys,
            [
                "limits",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                "--v-plus", "1.06", "--i-plus", "10",
            ],
        )
        assert code == 0
        marginal = report["marginal"]
        assert marginal["p0"] == pytest.approx(0.35289, abs=1e-4)
        assert marginal["pg"] == pytest.approx(0.79451, abs=1e-4)
        assert marginal["vg"] == pytest.approx(1.06, abs=1e-6)
        assert report["binding"] == "marginal"
        assert report["thermal"] is None
        assert "thermal_error" in report
        assert report["lambda_prime"] == pytest.approx(0.53495, abs=1e-4)

    def test_inline_thermal_binding(self, capsys):
        code, report = run_json(
            capsys,
            [
                "limits",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                "--v-plus", "1.06", "--i-plus", "0.3",
            ],
        )
        assert code == 0
        assert report["binding"] == "thermal"
        assert report["thermal"]["pg"] == pytest.approx(0.2873, abs=1e-3)
        assert report["thermal"]["current"] == pytest.approx(0.3, abs=1e-9)

    def test_feeder_mode(self, capsys):
        code, report = run_json(
            capsys, ["limits", "--feeder", FEEDER, "--bus", "12", "--v-plus", "1.06"]
        )
        assert code == 0
        assert report["case"]["v0"] == pytest.approx(1.05)
        assert report["case"]["lambda"] == pytest.approx(1.85, abs=0.01)
        assert report["s_load"]["p"] == pytest.approx(0.576)
        assert report["marginal"]["pg"] > 0.0

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "limits.csv"
        code = main(
            [
                "limits",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                "--i-plus", "0.9", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "limit"
        assert [r["limit"] for r in rows] == ["marginal", "thermal"]
        assert float(rows[0]["p0"]) == pytest.approx(0.35289, abs=1e-4)

    def test_missing_feeder_file_is_usage_error(self, capsys):
        code = main(["limits", "--feeder", "/nonexistent.feeder", "--bus", "1"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_mixed_modes_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["limits", "--feeder", FEEDER, "--bus", "12", "--v0", "1"])
        assert err.value.code == 2

    def test_inline_mode_requires_current_limit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["limits", "--v0", "1", "--r", "0.5", "--x", "0.5"])
        assert err.value.code == 2

    def test_zero_impedance_is_runtime_error(self, capsys):
        code = main(["limits", "--v0", "1", "--r", "0", "--x", "0", "--i-plus", "1"])
        assert code == 1
        assert "impedance magnitude" in capsys.readouterr().err

    def test_tiny_impedance_is_not_a_zero_line(self, capsys):
        # |Z| = 1.4e-200 is positive, but r² + x² underflows to 0
        code = main(["limits", "--v0", "1", "--r", "1e-200", "--x", "1e-200", "--i-plus", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: impedance magnitude squared underflows: Impedance(r=1e-200, x=1e-200)\n"
        )

    @pytest.mark.parametrize("flag", ["--v0", "--r", "--i-plus", "--v-plus"])
    def test_nan_input_is_usage_error(self, capsys, flag):
        # an infinite --i-plus is an unbounded ampacity, not bad input
        for value in ("nan",) if flag == "--i-plus" else ("nan", "inf"):
            argv = {"--v0": "1", "--r": "0.5", "--x": "0.5", "--i-plus": "1", "--v-plus": "1.06"}
            argv[flag] = value
            code = main(["limits"] + [tok for pair in argv.items() for tok in pair])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "overrides",
        [{"--v0": "1e300"}, {"--v-plus": "1e300"}, {"--r": "1e300"},
         {"--r": "1e-300", "--x": "1e-300"}, {"--r": "1e-161", "--x": "1e-161"}],
        ids=["huge-v0", "huge-v-plus", "huge-r", "tiny-z", "subnormal-z-squared"],
    )
    def test_extreme_finite_input_is_one_error_line(self, capsys, overrides):
        # finite values whose squares leave the normal float range
        argv = {"--v0": "1", "--r": "0.5", "--x": "0.5", "--i-plus": "1"} | overrides
        code = main(["limits"] + [tok for pair in argv.items() for tok in pair])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_huge_finite_ampacity_has_no_thermal_point(self, capsys):
        # as with an unbounded ampacity, the thermal circle misses the locus
        code, report = run_json(
            capsys, ["limits", "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "1e300"]
        )
        assert code == 0
        assert report["thermal"] is None
        assert report["binding"] == "marginal"
        assert "does not intersect" in report["thermal_error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--v0", "1e100", "--v-plus", "1e100", "--r", "0.5", "--x", "0.5",
             "--i-plus", "1e110"],
            ["--v0", "1", "--r", "1e-100", "--x", "1e-100", "--i-plus", "1e200"],
        ],
        ids=["huge-voltages", "huge-ampacity-tiny-line"],
    )
    def test_thermal_squares_past_float_range_leave_no_thermal_point(self, capsys, argv):
        # |Z|·I+ is far past V+ + V0, although under the far-ampacity guard
        code, report = run_json(capsys, ["limits"] + argv)
        assert code == 0
        assert report["thermal"] is None
        assert report["thermal_error"] == (
            "thermal limit does not intersect the voltage-limit locus (root argument -inf < 0)"
        )

    def test_unrepresentable_thermal_point_is_one_error_line(self, capsys):
        code = main(["limits", "--v0", "1e100", "--v-plus", "1e100", "--r", "0.5", "--x", "0.5",
                     "--i-plus", "1e100"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thermal limit squares leave the float range")
        assert err.count("\n") == 1


class TestCurvesCommand:
    def test_single_point_matches_closed_form(self, capsys):
        code = main(
            [
                "curves",
                "--lambda-min", "1", "--lambda-max", "1", "--lambda-points", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert header == [
            "lambda", "pg_marginal", "pg_upf", "pg_bdry",
            "p0_marginal", "efficiency", "pf_gen", "pf_sub",
        ]
        assert float(row["pg_marginal"]) == pytest.approx(0.79451, abs=1e-4)
        assert float(row["p0_marginal"]) == pytest.approx(0.35289, abs=1e-4)
        assert float(row["efficiency"]) == pytest.approx(0.44417, abs=1e-4)

    def test_grid_is_log_spaced(self, capsys):
        code = main(
            ["curves", "--lambda-min", "0.01", "--lambda-max", "100",
             "--lambda-points", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lams = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert lams == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-9)

    def test_heuristics_bracket_marginal_prediction(self, capsys):
        code = main(
            ["curves", "--lambda-min", "0.05", "--lambda-max", "20",
             "--lambda-points", "21"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            row = [float(tok) for tok in line.split(",")]
            lam, pg_marginal, pg_upf, pg_bdry = row[:4]
            if math.isnan(pg_upf):
                # near-reactive lines never reach the voltage limit at
                # unity power factor, so that heuristic has no limit point
                assert lam < 0.4
            else:
                assert pg_upf <= pg_marginal + 1e-9
            assert not math.isnan(pg_bdry)

    def test_z_mag_scales_powers_exactly(self, monkeypatch):
        # doubling |Z| doubles r and x exactly, which halves every power and
        # leaves the ratios alone, bit for bit
        rendered = []
        monkeypatch.setattr(cli, "_render", lambda args, doc, rows: rendered.append(rows) or "")
        grid = ["--lambda-min", "0.01", "--lambda-max", "100", "--lambda-points", "41"]
        assert main(["curves", *grid]) == 0
        assert main(["curves", *grid, "--z-mag", "2"]) == 0
        unit, double = rendered
        assert len(unit) == len(double) == 41
        for one, two in zip(unit, double):
            assert two["lambda"] == one["lambda"]
            for key in ("pg_marginal", "pg_upf", "pg_bdry", "p0_marginal"):
                assert two[key] == one[key] / 2 or math.isnan(two[key]) and math.isnan(one[key])
            for key in ("efficiency", "pf_gen", "pf_sub"):
                assert two[key] == one[key]

    @pytest.mark.parametrize("lambda_max", ["1e200", "1.7e308"])
    def test_huge_ratio_gives_finite_rows(self, capsys, lambda_max):
        # λ² overflows beyond about 1.3e154; the line must not collapse to zero
        code = main(["curves", "--lambda-max", lambda_max, "--lambda-points", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        for line in lines[1:]:
            lam, pg_marginal, pg_upf, *rest = map(float, line.split(","))
            # at λ = 0.01 unity power factor never reaches V+, so pg_upf is nan there
            assert lam == 0.01 and math.isnan(pg_upf) or math.isfinite(pg_upf)
            assert all(map(math.isfinite, [lam, pg_marginal, *rest]))

    def test_invalid_range_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["curves", "--lambda-min", "-1"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda-min", "nan"), ("--lambda-min", "inf"), ("--lambda-max", "nan"),
         ("--lambda-max", "inf"), ("--lambda-points", "0"),
         ("--lambda-points", str(feederlimits.sweep._MAX_GRID_POINTS + 1))],
    )
    def test_bad_grid_is_one_usage_error_naming_the_flag(self, capsys, flag, value):
        # the grid is checked before it is built, so the cap costs no memory
        with pytest.raises(SystemExit) as err:
            main(["curves", flag, value])
        assert err.value.code == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert lines[-1].startswith(f"feederlimits: error: {flag} must")
        assert "Impedance" not in lines[-1]


class TestSweepCommand:
    def test_inline_sweep_writes_summary_and_frontier(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                "--p-min", "0", "--p-max", "1.0", "--p-step", "0.05",
                "--q-min", "-1.0", "--q-max", "0.2", "--q-step", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["predicted_marginal"]["p0"] == pytest.approx(0.35289, abs=1e-4)
        assert abs(summary["errors"]["eps_p0_marginal"]) < 0.1
        frontier = tmp_path / "sweep.frontier.csv"
        header, rows = read_csv(frontier)
        assert header[0] == "p_gen"
        assert len(rows) >= 5

    def test_huge_finite_ampacity_has_no_predicted_thermal_point(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "1e300",
                "--p-max", "0.4", "--p-step", "0.1",
                "--q-min", "-0.4", "--q-max", "0", "--q-step", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["predicted_thermal"] is None
        assert summary["errors"]["eps_pg_thermal"] is None
        assert summary["predicted_marginal"]["vg"] == pytest.approx(1.06)

    def test_sweep_requires_output_path(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--v0", "1", "--r", "0.5", "--x", "0.5"])
        assert err.value.code == 2

    def test_infeasible_sweep_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                "--v-plus", "0.5",
                "--p-min", "0.5", "--p-max", "0.6", "--p-step", "0.05",
                "--q-min", "0", "--q-max", "0.1", "--q-step", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "no grid point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--p-step", "nan"), ("--p-max", "inf"), ("--p-step", "0")]
    )
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711",
                flag, value, "--out", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sweep.json").exists()

    def test_substation_limit_is_enforced_and_echoed(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711", "--i-plus", "0.9",
                "--p-min", "0", "--p-max", "1.0", "--p-step", "0.05",
                "--q-min", "-1.0", "--q-max", "0.2", "--q-step", "0.05",
                "--p-plus", "0.3", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["case"]["p_plus"] == 0.3
        assert summary["measured"]["p0_marginal"] <= 0.3

    def test_feeder_sweep_rejects_current_limit(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "sweep", "--feeder", FEEDER, "--bus", "12", "--i-plus", "0.1",
                    "--p-min", "0", "--p-max", "0.2", "--p-step", "0.1",
                    "--q-min", "-0.2", "--q-max", "0", "--q-step", "0.1",
                    "--out", str(out),
                ]
            )
        assert err.value.code == 2
        assert "--i-plus" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--v0", "1", "--r", "0.70711", "--x", "0.70711", "--i-plus", "0.9",
                "--p-min", "0", "--p-max", "1.0", "--p-step", "0.1",
                "--q-min", "-1.0", "--q-max", "0.2", "--q-step", "0.1",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert "pg_marginal" in header
        assert "eps_p0_thermal" in header
        assert len(rows) == 1


class TestEquivalentCommand:
    def test_simple_chain(self, capsys, tmp_path):
        feeder = tmp_path / "chain.feeder"
        feeder.write_text(
            "[bus]\na\nb\n[source]\na 1.0\n[branch]\na b 0.1 0.2 1.0\n"
        )
        code, record = run_json(
            capsys, ["equivalent", "--feeder", str(feeder), "--bus", "b"]
        )
        assert code == 0
        assert record["lambda"] == pytest.approx(0.5)
        assert record["z_mag"] == pytest.approx(0.22360679775, abs=1e-9)
        assert record["i_plus"] == pytest.approx(1.0)
        assert record["s_load_p"] == 0.0

    def test_bundled_feeder(self, capsys):
        code, record = run_json(
            capsys, ["equivalent", "--feeder", FEEDER, "--bus", "12"]
        )
        assert code == 0
        assert record["r"] == pytest.approx(0.1786, abs=1e-4)
        assert record["x"] == pytest.approx(0.0965, abs=1e-4)
        assert record["s_load_p"] == pytest.approx(0.576)

    def test_source_bus_rejected(self):
        assert main(["equivalent", "--feeder", FEEDER, "--bus", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["limits", "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "1",
         "--p-plus", "0.01"],
        ["equivalent", "--feeder", FEEDER, "--bus", "12", "--p-plus", "3"],
    ],
    ids=["limits", "equivalent"],
)
def test_substation_limit_is_sweep_only(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--p-plus" in capsys.readouterr().err


def _bad_feeder(kind, tmp_path):
    path = tmp_path / f"{kind}.feeder"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-ascii":
        path.write_bytes(b"# caf\xc3\xa9\n" + bundled_feeder_path().read_bytes())
    elif kind == "meshed":
        path.write_text(
            "[bus]\n1\n2\n3\n[source]\n1 1.0\n"
            "[branch]\n1 2 0.1 0.1 1\n2 3 0.1 0.1 1\n1 3 0.1 0.1 1\n"
        )
    elif kind == "negative-source":
        path.write_text("[bus]\n1\n2\n[source]\n1 -1.0\n[branch]\n1 2 0.1 0.1 1\n")
    elif kind == "nan-load":
        path.write_text(
            "[bus]\n1\n2\n[source]\n1 1.0\n[branch]\n1 2 0.1 0.1 1\n[load]\n2 nan 0\n"
        )
    return str(path)


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "non-ascii", "meshed", "negative-source", "nan-load"]
)
@pytest.mark.parametrize("command", ["limits", "equivalent"])
def test_feeder_file_fault_is_one_error_line(command, kind, tmp_path, capsys):
    path = _bad_feeder(kind, tmp_path)
    assert main([command, "--feeder", path, "--bus", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if kind == "missing":
        assert err == f"error: file not found: {path}\n"
    else:
        assert err.startswith(f"error: {path}")


@pytest.mark.parametrize("command", ["limits", "equivalent", "sweep"])
def test_overflowing_path_impedance_is_one_error_line(command, tmp_path, capsys):
    # each branch is finite, but the series sum to bus 3 leaves the float range
    path = tmp_path / "huge.feeder"
    path.write_text(
        "[bus]\n1\n2\n3\n[source]\n1 1.0\n"
        "[branch]\n1 2 1e308 0.1 1\n2 3 1e308 0.1 1\n"
    )
    out = tmp_path / "out.json"
    assert main([command, "--feeder", str(path), "--bus", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: path impedance to bus '3' overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["limits", "equivalent", "sweep"])
def test_source_bus_is_one_error_line(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([command, "--feeder", FEEDER, "--bus", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


OUTPUT_COMMANDS = {
    "limits": ["limits", "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "1"],
    "curves": ["curves", "--lambda-points", "3"],
    "sweep": ["sweep", "--v0", "1", "--r", "0.5", "--x", "0.5", "--p-max", "0.2",
              "--p-step", "0.1", "--q-min", "-0.2", "--q-max", "0", "--q-step", "0.1"],
    "equivalent": ["equivalent", "--feeder", FEEDER, "--bus", "12"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_out_is_one_error_line(command, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(OUTPUT_COMMANDS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write: ")
    assert err.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["limits", "--v0", "1", "--r", "1", "--x", "0", "--i-plus", "1"], ["case", "lambda"]),
        (["limits", "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "inf"],
         ["case", "i_plus"]),
        (["sweep", "--v0", "1", "--r", "0.70711", "--x", "0.70711",
          "--p-min", "0", "--p-max", "1.0", "--p-step", "0.1",
          "--q-min", "-1.0", "--q-max", "0.2", "--q-step", "0.1"], ["case", "i_plus"]),
        (["curves", "--format", "json", "--lambda-max", "0.02"], [0, "pg_upf"]),
    ],
    ids=["resistive-lambda", "unbounded-ampacity", "inline-sweep", "curves-no-upf-point"],
)
def test_json_output_is_valid(argv, path, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    record = json.loads(out.read_text(), parse_constant=_reject_constant)
    for key in path:
        record = record[key]
    assert record is None


def _error_classes(base=FeederLimitsError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


# input errors are usage errors (2); anything else failed at run time (1)
EXIT_CODES = {
    DegenerateImpedanceError: 1,
    NoSolutionError: 1,
    DomainError: 2,
    ThermalLimitError: 1,
    ConvergenceError: 1,
    TopologyError: 1,
    FeederFileError: 2,
    NoFeasiblePointError: 1,
}
COMMANDS = {
    "cmd_limits": ["limits", "--v0", "1", "--r", "0.5", "--x", "0.5", "--i-plus", "1"],
    "cmd_curves": ["curves"],
    "cmd_sweep": ["sweep", "--v0", "1", "--r", "0.5", "--x", "0.5"],
    "cmd_equivalent": ["equivalent", "--feeder", FEEDER, "--bus", "12"],
}


@settings(derandomize=True, database=None, max_examples=50)
@given(
    error=st.sampled_from(sorted(_error_classes(), key=lambda cls: cls.__name__)),
    command=st.sampled_from(sorted(COMMANDS)),
)
def test_error_maps_to_exit_code(error, command):
    def fail(args, parser):
        raise error("boom")

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
        mp.setattr(cli, command, fail)
        code = main(COMMANDS[command])
    assert code == EXIT_CODES[error]
    assert stderr.getvalue() == "error: boom\n"


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        argv_template = [
            "limits",
            "--v0", "1", "--r", "0.70711", "--x", "0.70711", "--i-plus", "0.9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv_template + ["--out", str(a)]) == 0
        assert main(argv_template + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_values_round_to_twelve_significant_digits(self, capsys):
        code, report = run_json(
            capsys,
            ["limits", "--v0", "1", "--r", "0.70711", "--x", "0.70711",
             "--i-plus", "0.9"],
        )
        assert code == 0
        raw = report["marginal"]["pg"]
        assert raw == float(format(raw, ".12g"))


@pytest.mark.parametrize("module", ["numpy", "multiprocessing", "concurrent.futures"])
def test_cli_import_does_not_load(module):
    src = os.path.dirname(os.path.dirname(feederlimits.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, feederlimits.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
