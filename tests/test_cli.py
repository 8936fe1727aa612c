import csv
import io
import json
import math

import numpy as np
import pytest

from confcalc import Tolerance
from confcalc.cli import run


def _json_records(capsys):
    doc = json.loads(capsys.readouterr().out)
    return doc["records"]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CONFCALC_TOL", raising=False)


class TestUsageErrors:
    def test_no_source_is_usage_error(self, capsys):
        assert run(["deriv", "--alpha", "0.5", "--t", "1.0"]) == 2
        assert "required" in capsys.readouterr().err

    def test_two_sources_rejected(self, capsys):
        code = run(["deriv", "--expr", "t", "--builtin", "exp",
                    "--alpha", "0.5", "--t", "1.0"])
        assert code == 2

    def test_missing_t_axis(self):
        assert run(["deriv", "--builtin", "exp", "--alpha", "0.5"]) == 2

    def test_alpha_out_of_range(self, capsys):
        code = run(["deriv", "--builtin", "exp", "--alpha", "1.5",
                    "--t", "1.0"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_builtin(self, capsys):
        code = run(["deriv", "--builtin", "sinh", "--alpha", "0.5",
                    "--t", "1.0"])
        assert code == 2

    def test_bad_expression_offset_reported(self, capsys):
        code = run(["deriv", "--expr", "t +", "--alpha", "0.5", "--t", "1.0"])
        assert code == 2
        assert "offset" in capsys.readouterr().err

    def test_missing_grid_file(self, tmp_path):
        code = run(["deriv", "--grid", str(tmp_path / "none.csv"),
                    "--alpha", "0.5", "--t", "1.0"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["t", "start", "stop"])
    @pytest.mark.parametrize("cmd", [
        ["deriv", "--builtin", "exp", "--alpha", "0.5"],
        ["integ", "--builtin", "exp", "--alpha", "0.5"],
        ["convert", "--builtin", "exp", "--alpha", "0.5", "--beta", "1.0"],
    ], ids=["deriv", "integ", "convert"])
    def test_non_finite_t_refused(self, capsys, cmd, where, value):
        axis = {"t": f"--t={value}", "start": f"--t-range={value}:1:3",
                "stop": f"--t-range=0.5:{value}:3"}[where]
        assert run(cmd + [axis]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be finite" in err


class TestDeriv:
    def test_fractional_power_fixed_point(self, capsys):
        # T^0.5 of t^0.5 is the constant 1/2
        code = run(["deriv", "--builtin", "pow:0.5", "--alpha", "0.5",
                    "--t", "0.25"])
        assert code == 0
        (rec,) = _json_records(capsys)
        assert rec["converged"]
        assert abs(rec["value"] - 0.5) <= 1e-6

    def test_record_echoes_configuration(self, capsys):
        assert run(["deriv", "--builtin", "exp", "--alpha", "0.5",
                    "--a", "0.0", "--t", "2.0", "--tol-rel", "1e-7",
                    "--tol-abs", "1e-9"]) == 0
        (rec,) = _json_records(capsys)
        assert rec["inputs"] == {
            "builtin": "exp", "alpha": 0.5, "a": 0.0, "t": 2.0,
            "side": "two-sided", "tol_rel": 1e-7, "tol_abs": 1e-9,
        }

    def test_sweep_keeps_going_past_bad_points(self, capsys):
        # t = -1 and t = 0 sit at or below the terminal; the sweep must
        # record those errors and still produce the good point
        code = run(["deriv", "--builtin", "pow:0.5", "--alpha", "0.5",
                    "--t-range=-1:1:3"])
        assert code == 1
        recs = _json_records(capsys)
        assert [r["inputs"]["t"] for r in recs] == [-1.0, 0.0, 1.0]
        assert recs[0]["error"] is not None
        assert recs[1]["error"] is not None
        assert recs[2]["error"] is None and recs[2]["converged"]

    def test_csv_layout_with_blanks(self, capsys):
        code = run(["deriv", "--builtin", "pow:0.5", "--alpha", "0.5",
                    "--t-range=0:1:2", "--format", "csv"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,v,err_estimate,converged"
        bad = lines[1].split(",")
        assert bad == ["0.0", "", "", "false"]
        good = lines[2].split(",")
        assert float(good[1]) == pytest.approx(0.5, abs=1e-6)
        assert good[3] == "true"

    def test_kink_returns_one(self, capsys):
        code = run(["deriv", "--expr", "abs(t)", "--alpha", "1.0",
                    "--a", "-5", "--t", "0.0"])
        assert code == 1
        (rec,) = _json_records(capsys)
        assert rec["value"] is not None
        assert not rec["converged"]

    def test_vector_source_csv_columns(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        ts = np.linspace(0.0, 4.0, 41)
        rows = ["t,v0,v1"] + [f"{t},{t * t},{3 * t}" for t in ts]
        path.write_text("\n".join(rows) + "\n")
        code = run(["deriv", "--grid", str(path), "--alpha", "1.0",
                    "--t", "2.0", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,v0,v1,err_estimate,converged"
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(4.0, abs=1e-6)
        assert float(row[2]) == pytest.approx(3.0, abs=1e-6)

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = run(["deriv", "--builtin", "exp", "--alpha", "0.5",
                    "--t", "1.0", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 1

    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["deriv", "--builtin", "sin", "--alpha", "0.5",
                "--t-range=0.5:2.5:5"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second


def _counting_evaluations(monkeypatch):
    # the sizes of the batch evaluations: eval_many and the kernels both
    # evaluate through AbstractFn._checked
    from confcalc.funcs import AbstractFn

    calls = []
    checked = AbstractFn._checked

    def counted(self, ts, fails):
        calls.append(len(np.ravel(ts)))
        return checked(self, ts, fails)

    monkeypatch.setattr(AbstractFn, "_checked", counted)
    return calls


def _point_by_point(capsys, argv, ts):
    # the one-record documents of the sweep's points, run one at a time
    out = {"json": [], "csv": []}
    for t in ts:
        assert run(argv + [f"--t={t!r}"]) in (0, 1)
        out["json"] += _json_records(capsys)
        assert run(argv + [f"--t={t!r}", "--format", "csv"]) in (0, 1)
        out["csv"].append(capsys.readouterr().out.splitlines())
    return out


class TestBatchedSweeps:
    # deriv and convert sweeps run as one conf_deriv_many batch and print
    # what the point-by-point loop prints

    @pytest.mark.parametrize("cmd", [
        ["deriv", "--expr", "t^0.5 + sin(t)", "--alpha", "0.5"],
        ["convert", "--expr", "t^0.5 + sin(t)", "--alpha", "0.5", "--beta", "0.9"],
    ], ids=["deriv", "convert"])
    def test_one_evaluation_call_per_sweep(self, capsys, monkeypatch, cmd):
        ts = [float(v) for v in np.linspace(0.1, 5.0, 12)]
        calls = _counting_evaluations(monkeypatch)
        assert run(cmd + ["--t-range=0.1:5:12"]) == 0
        recs = _json_records(capsys)
        assert calls == [12 * 17]
        calls.clear()
        one = _point_by_point(capsys, cmd, ts)
        assert calls == [17] * 24
        assert recs == one["json"]
        assert run(cmd + ["--t-range=0.1:5:12", "--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert [[header, row] for row in rows] == one["csv"]

    @pytest.mark.parametrize("cmd", [
        ["deriv", "--expr", "1/(t - 2)", "--alpha", "0.5"],
        ["convert", "--expr", "1/(t - 2)", "--alpha", "0.5", "--beta", "1.0"],
    ], ids=["deriv", "convert"])
    def test_a_failing_point_mid_range_keeps_its_record(self, capsys, cmd):
        # t = 2 is a pole: that point alone fails, its neighbours converge
        assert run(cmd + ["--t-range=1:3:5"]) == 1
        recs = _json_records(capsys)
        assert [r["inputs"]["t"] for r in recs] == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert [r["error"] is None for r in recs] == [True, True, False, True, True]
        assert "DomainError" in recs[2]["error"]
        one = _point_by_point(capsys, cmd, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert recs == one["json"]
        assert run(cmd + ["--t-range=1:3:5", "--format", "csv"]) == 1
        header, *rows = capsys.readouterr().out.splitlines()
        assert [[header, row] for row in rows] == one["csv"]


    @pytest.mark.parametrize("cmd,t_range,n", [
        (["deriv", "--expr", "1/(t - 2)", "--alpha", "0.5"], "1:3:5", 5),
        (["integ", "--expr", "log(t - 1)", "--alpha", "0.5"], "0.5:3:6", 6),
        (["convert", "--expr", "sqrt(t - 1)", "--alpha", "0.5", "--beta", "1"], "0.5:3:6", 6),
    ], ids=["deriv", "integ", "convert"])
    def test_failing_points_cost_no_second_evaluation(self, capsys, monkeypatch, cmd, t_range,
                                                      n):
        # each point's error is decided in the sweep's one evaluation call
        # (9, 8 and 8 calls when a failed batch ran again point by point)
        calls = _counting_evaluations(monkeypatch)
        assert run(cmd + [f"--t-range={t_range}"]) == 1
        recs = _json_records(capsys)
        assert len(calls) == 1
        assert any(r["error"] is not None for r in recs)
        ts = [float(v) for v in np.linspace(*map(float, t_range.split(":")[:2]), n)]
        one = _point_by_point(capsys, cmd, ts)
        assert recs == one["json"]
        assert run(cmd + [f"--t-range={t_range}", "--format", "csv"]) == 1
        header, *rows = capsys.readouterr().out.splitlines()
        assert [[header, row] for row in rows] == one["csv"]


class TestInteg:
    def test_constant_integral(self, capsys):
        # integral of s^(-1/2) over [0, 4] = 2 * sqrt(4) = 4
        code = run(["integ", "--builtin", "one", "--alpha", "0.5",
                    "--t", "4.0"])
        assert code == 0
        (rec,) = _json_records(capsys)
        assert abs(rec["value"] - 4.0) <= 1e-9
        assert rec["evals"] > 0

    def test_below_terminal_recorded(self, capsys):
        code = run(["integ", "--builtin", "one", "--alpha", "0.5",
                    "--a", "1.0", "--t", "0.5"])
        assert code == 1
        (rec,) = _json_records(capsys)
        assert "LowerTerminalError" in rec["error"]


class TestConvert:
    def test_to_classical_order(self, capsys):
        # T^0.5 of t^2 at t = 2, moved to order 1, is the plain slope 2t
        code = run(["convert", "--builtin", "square", "--alpha", "0.5",
                    "--beta", "1.0", "--t", "2.0"])
        assert code == 0
        (rec,) = _json_records(capsys)
        assert abs(rec["value"] - 4.0) <= 1e-6
        assert rec["source_value"] == pytest.approx(4.0 * math.sqrt(2.0),
                                                    abs=1e-6)

    def test_conversion_at_terminal_recorded(self, capsys):
        code = run(["convert", "--builtin", "square", "--alpha", "0.5",
                    "--beta", "1.0", "--t", "0.0"])
        assert code == 1
        (rec,) = _json_records(capsys)
        assert "LowerTerminalError" in rec["error"]


class TestRecordLayout:
    # a failed point must line up with a good one, field for field
    @pytest.mark.parametrize("argv", [
        ["deriv", "--builtin", "pow:0.5", "--alpha", "0.5", "--t-range=0:1:2"],
        ["integ", "--builtin", "one", "--alpha", "0.5", "--a", "1.0",
         "--t-range=0.5:2:2"],
        ["convert", "--builtin", "square", "--alpha", "0.5", "--beta", "1.0",
         "--t-range=0:2:2"],
    ], ids=["deriv", "integ", "convert"])
    def test_error_record_matches_success(self, capsys, argv):
        assert run(argv) == 1
        bad, good = _json_records(capsys)
        assert bad["error"] is not None and good["error"] is None
        assert list(bad) == list(good)
        assert list(bad["inputs"]) == list(good["inputs"])
        assert run(argv + ["--format", "csv"]) == 1
        header, bad_row, good_row = capsys.readouterr().out.splitlines()
        width = len(header.split(","))
        assert len(bad_row.split(",")) == width == len(good_row.split(","))

    def test_limit_error_record_matches_success(self, capsys):
        # limit makes one record per run: the domain of sqrt starts above
        # a = -1, which fails, and a = 0 succeeds
        bad_argv = ["limit", "--builtin", "sqrt", "--alpha", "0.5", "--a", "-1"]
        good_argv = ["limit", "--builtin", "sqrt", "--alpha", "0.5"]
        assert run(bad_argv) == 1
        (bad,) = _json_records(capsys)
        assert run(good_argv) == 0
        (good,) = _json_records(capsys)
        assert bad["error"].startswith("DomainError") and good["error"] is None
        assert list(bad) == list(good)
        assert list(bad["inputs"]) == list(good["inputs"])
        rows = []
        for argv in (bad_argv, good_argv):
            run(argv + ["--format", "csv"])
            rows += capsys.readouterr().out.splitlines()
        bad_header, bad_row, good_header, good_row = rows
        assert bad_header == good_header == "alpha,a,v,err_estimate,converged"
        assert len(bad_row.split(",")) == 5 == len(good_row.split(","))


class TestLimit:
    def test_terminal_derivative_of_smooth(self, capsys):
        code = run(["limit", "--builtin", "exp", "--alpha", "0.5"])
        assert code == 0
        (rec,) = _json_records(capsys)
        assert rec["converged"]
        assert abs(rec["value"]) <= 1e-4

    def test_divergent_terminal_returns_one(self, capsys):
        code = run(["limit", "--builtin", "pow:0.5", "--alpha", "0.9"])
        assert code == 1
        (rec,) = _json_records(capsys)
        assert not rec["converged"]

    def test_csv_single_row(self, capsys):
        code = run(["limit", "--builtin", "sin", "--alpha", "0.5",
                    "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,a,v,err_estimate,converged"
        assert len(lines) == 2


_CHECK_ARGS = ["check", "--alphas", "0.5,1.0", "--betas", "0.5",
               "--t-offsets", "1.0"]


class TestCheck:
    def test_suite_passes_and_reports(self, capsys):
        code = run(_CHECK_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] > 0
        assert set(doc["statements"])

    def test_byte_identical_reports(self, capsys):
        run(_CHECK_ARGS)
        first = capsys.readouterr().out
        run(_CHECK_ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        code = run(_CHECK_ARGS + ["--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["identity_id", "subject", "residual", "threshold",
                           "status"]
        run(_CHECK_ARGS)
        cases = json.loads(capsys.readouterr().out)["cases"]
        assert len(rows) == 1 + len(cases)
        for row, case in zip(rows[1:], cases):
            # subjects such as "f, g" come back whole through the quoting
            assert row[:2] == [case["identity_id"], case["subject"]]
            assert row[4] == case["status"]
            for cell, key in ((row[2], "residual"), (row[3], "threshold")):
                want = case[key]
                assert (cell == "") if want is None else float(cell) == want

    def test_bad_grid_value(self, capsys):
        assert run(["check", "--alphas", "0.5,zebra"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_t_offset_refused(self, capsys, value):
        # refused while parsing, before any case runs
        assert run(["check", "--t-offsets", f"0.5,{value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--t-offsets entry must be finite" in err

    def test_terminal_below_a_members_domain(self, tmp_path):
        # the default corpus at a = -1 holds pow:0.5, defined on [0, inf):
        # its cases where t < 0 or [a, t] leaves the domain are not
        # applicable, and the full default grid still reports 960 cases
        out = tmp_path / "check.json"
        assert run(["check", "--a", "-1", "--output", str(out)]) in (0, 1)
        doc = json.loads(out.read_text())
        assert doc["summary"]["total"] == len(doc["cases"]) == 960
        assert doc["config"]["a_values"] == [-1.0]
        outside = [c for c in doc["cases"] if c["subject"].startswith("pow:0.5")
                   and not c["subject"].startswith("pow:0.5:")
                   and (c["inputs"].get("t", -1.0) < 0.0
                        or c["identity_id"] in ("LEFT_INV_3_5", "RIGHT_INV_3_7"))]
        # at t = -0.5: 4 EQUIV, 4 CONTINUITY, 16 algebra, 6 ORDER_REL,
        # 6 CLASS_EQ and 1 AVG; needing [-1, t]: 8 LEFT_INV, 8 RIGHT_INV,
        # 4 RIGHT_INV_AT_A and 2 LOWER_VANISH
        assert len(outside) == 59
        assert all(c["status"] == "not_applicable" and "pow:0.5" in c["diagnostics"]
                   for c in outside)


class TestIvp:
    def test_linear_growth_value(self, capsys):
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5", "--x0", "1.0",
                    "--t-end", "1.0", "--n-steps", "1000"])
        assert code == 0
        (rec,) = _json_records(capsys)
        states = rec["trajectory"]["states"]
        assert abs(states[-1] - math.e**2) <= 1e-6
        assert rec["trajectory"]["stats"]["n_steps"] == 1000

    def test_cross_validation_reported(self, capsys):
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5", "--x0", "1.0",
                    "--t-end", "1.0", "--n-steps", "200",
                    "--cross-validate"])
        assert code == 0
        (rec,) = _json_records(capsys)
        assert rec["cross_validation_deviation"] <= 1e-6

    def test_cross_validation_solves_tau_once(self, capsys, monkeypatch):
        # the printed trajectory is the one cross-validated
        import confcalc.cli as cli_mod
        import confcalc.ivp as ivp_mod

        calls = []
        solve_tau = ivp_mod.solve_tau

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_tau(*args, **kwargs)

        monkeypatch.setattr(ivp_mod, "solve_tau", counted)
        monkeypatch.setattr(cli_mod, "solve_tau", counted)
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5", "--x0", "1.0",
                    "--t-end", "1.0", "--n-steps", "200", "--cross-validate"])
        assert code == 0
        assert len(calls) == 1
        (rec,) = _json_records(capsys)
        assert 0.0 < rec["cross_validation_deviation"] <= 1e-6

    def test_csv_trajectory(self, capsys):
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5", "--x0", "2.0",
                    "--t-end", "1.0", "--n-steps", "4", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,x0"
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == 2.0

    def test_vector_x0_rejected(self, capsys):
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5",
                    "--x0", "1.0,2.0", "--t-end", "1.0"])
        assert code == 2
        assert "scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_x0_refused(self, capsys, value):
        code = run(["ivp", "--rhs", "x", "--alpha", "0.5", f"--x0={value}",
                    "--t-end", "1.0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--x0 must be finite" in err

    def test_unknown_symbol_in_rhs(self, capsys):
        code = run(["ivp", "--rhs", "x + y", "--alpha", "0.5", "--x0", "1",
                    "--t-end", "1.0"])
        assert code == 2

    def test_blowup_reported_as_error(self, capsys):
        code = run(["ivp", "--rhs", "x ^ 2", "--alpha", "1.0", "--x0", "1.0",
                    "--t-end", "2.0", "--n-steps", "50"])
        assert code == 1
        (rec,) = _json_records(capsys)
        assert rec["error"] is not None

    def test_blowup_csv_reports_error_on_stderr(self, capsys):
        argv = ["ivp", "--rhs", "x ^ 2", "--alpha", "1.0", "--x0", "1.0",
                "--t-end", "2.0", "--n-steps", "50"]
        assert run(argv) == 1
        (rec,) = _json_records(capsys)
        assert run(argv + ["--format", "csv"]) == 1
        out = capsys.readouterr()
        assert out.out == "t\n"
        assert out.err == f"confcalc: {rec['error']}\n"


class TestEnvironmentTolerance:
    def test_env_applies_when_flags_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFCALC_TOL", "1e-5")
        run(["deriv", "--builtin", "exp", "--alpha", "0.5", "--t", "1.0"])
        (rec,) = _json_records(capsys)
        assert rec["inputs"]["tol_rel"] == 1e-5
        assert rec["inputs"]["tol_abs"] == pytest.approx(1e-7)

    def test_flags_beat_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFCALC_TOL", "1e-5")
        run(["deriv", "--builtin", "exp", "--alpha", "0.5", "--t", "1.0",
             "--tol-rel", "1e-9"])
        (rec,) = _json_records(capsys)
        assert rec["inputs"]["tol_rel"] == 1e-9
        # unset abs falls back to the environment pair
        assert rec["inputs"]["tol_abs"] == pytest.approx(1e-7)

    @pytest.mark.parametrize("flag,value,other", [
        ("--tol-rel", 1e-9, "tol_abs"), ("--tol-abs", 1e-12, "tol_rel"),
    ])
    def test_one_flag_fills_the_other_from_defaults(self, capsys, flag, value,
                                                    other):
        run(["deriv", "--builtin", "exp", "--alpha", "0.5", "--t", "1.0",
             flag, str(value)])
        (rec,) = _json_records(capsys)
        assert rec["inputs"][flag[2:].replace("-", "_")] == value
        assert rec["inputs"][other] == getattr(Tolerance(), other[4:])

    def test_defaults_when_unset(self, capsys):
        run(["deriv", "--builtin", "exp", "--alpha", "0.5", "--t", "1.0"])
        (rec,) = _json_records(capsys)
        assert rec["inputs"]["tol_rel"] is None
        assert rec["inputs"]["tol_abs"] is None

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFCALC_TOL", "fast")
        code = run(["deriv", "--builtin", "exp", "--alpha", "0.5",
                    "--t", "1.0"])
        assert code == 2
