import csv
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import compare_outputs
from wienerlab import cli, diagnostics, quadrature as quad
from wienerlab.diagnostics import Flag, SsgdResult
from wienerlab.cli import (EXIT_CONTRADICTION, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE,
                           _parse_direction, _parse_poly, main)


def run(args, tmp_path, extra_env=None):
    env_out = str(tmp_path)
    old = os.environ.get("WIENERLAB_OUT")
    os.environ["WIENERLAB_OUT"] = env_out
    try:
        return main(args)
    finally:
        if old is None:
            os.environ.pop("WIENERLAB_OUT", None)
        else:
            os.environ["WIENERLAB_OUT"] = old


class TestPolyParsing:
    def test_simple_square(self):
        p = _parse_poly("x1^2")
        assert p.terms == {(2,): 1.0}

    def test_mixed_terms(self):
        p = _parse_poly("2*x1^2*x2 - 0.5*x1 + 3")
        assert p.terms == {(2, 1): 2.0, (1, 0): -0.5, (0, 0): 3.0}

    @pytest.mark.parametrize("spec, terms", [
        ("1e-3*x1^2", {(2,): 1e-3}),
        ("-1e-2*x1^2 + 3", {(2,): -1e-2, (0,): 3.0}),
        ("1e+3*x1", {(1,): 1e3}),
        # a sign after '*' belongs to its factor: these were x1^2 - 3 and x1 - x2
        ("x1^2*-3", {(2,): -3.0}),
        ("x1*-x2", {(1, 1): -1.0}),
        ("-x1*+2 + 3", {(1,): -2.0, (0,): 3.0}),
    ])
    def test_exponent_notation(self, spec, terms):
        assert _parse_poly(spec).terms == terms

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            _parse_poly("x1^^2 @")

    @pytest.mark.parametrize("spec", ["x1**2", "x1*", "*x1", "x1 +"])
    def test_empty_factor_rejected(self, tmp_path, spec):
        # 'x1**2' ran cm-check on 2*x1: the empty factor between the stars was skipped
        out = tmp_path / "out"
        assert run(["cm-check", "--poly", spec, "--n-samples", "1000", "--out", str(out)],
                   tmp_path) == EXIT_USAGE
        assert not out.exists()

    def test_direction(self):
        d = _parse_direction("1.0,-2.0")
        assert list(d.density_values) == [1.0, -2.0]
        assert d.grid.n_cells == 2


class TestExitCodes:
    def test_thm31_default(self, tmp_path):
        assert run(["reproduce-thm31", "--out", str(tmp_path)], tmp_path) == EXIT_OK
        assert (tmp_path / "thm31-report.csv").exists()
        assert (tmp_path / "thm31-report.md").exists()

    @pytest.mark.parametrize("a", ["1.6", "1.75"])
    def test_thm31_slow_derivative_tail_exits_0(self, tmp_path, a):
        # E|f'|^2 has the tail x^(2-2a), which the fused envelope certifies:
        # in_base is Yes and the report exits 0 (it exited 2, Inconclusive)
        assert run(["reproduce-thm31", "--a", a, "--out", str(tmp_path)], tmp_path) == EXIT_OK
        rows = list(csv.reader((tmp_path / "thm31-report.csv").read_text().splitlines()[1:]))
        assert [r[3] for r in rows if r[0] == "deriv_moment" and r[1] == "2.0"] == ["converged"]

    def test_thm31_bad_exponent(self, tmp_path):
        assert run(["reproduce-thm31", "--a", "1.0"], tmp_path) == EXIT_USAGE

    def test_thm31_other_valid_exponent(self, tmp_path):
        assert run(["reproduce-thm31", "--a", "3.0", "--out", str(tmp_path)],
                   tmp_path) == EXIT_OK

    def test_thm33_default(self, tmp_path):
        assert run(["reproduce-thm33", "--out", str(tmp_path)], tmp_path) == EXIT_OK

    def test_thm33_bad_window(self, tmp_path, capsys):
        assert run(["reproduce-thm33", "--eta", "0.1", "--mu", "0.2"],
                   tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "weight_decreasing" in err

    def test_diagnose_linear(self, tmp_path):
        assert run(["diagnose", "--functional", "linear", "--delta", "0.1",
                    "--h", "1.0", "--out", str(tmp_path)], tmp_path) == EXIT_OK

    def test_diagnose_unknown(self, tmp_path):
        assert run(["diagnose", "--functional", "mystery"], tmp_path) == EXIT_USAGE

    def test_diagnose_requires_name(self, tmp_path):
        assert run(["diagnose"], tmp_path) == EXIT_USAGE

    def test_unknown_flag(self, tmp_path):
        assert run(["reproduce-thm31", "--frobnicate"], tmp_path) == EXIT_USAGE

    def test_cm_check(self, tmp_path):
        code = run(["cm-check", "--poly", "x1^2", "--direction", "1.0",
                    "--n-samples", "100000", "--out", str(tmp_path)], tmp_path)
        assert code == EXIT_OK
        assert (tmp_path / "cm-check.csv").exists()

    def test_cm_check_missing_directions(self, tmp_path):
        assert run(["cm-check", "--poly", "x1*x2", "--direction", "1.0"],
                   tmp_path) == EXIT_USAGE

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_cm_check_needs_two_samples(self, tmp_path, capsys, n):
        # one sample has no standard error; none used to end in an IndexError
        assert run(["cm-check", "--n-samples", n, "--out", str(tmp_path)],
                   tmp_path) == EXIT_USAGE
        assert f"--n-samples must be at least 2, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "cm-check.csv").exists()

    @pytest.mark.parametrize("command", [["reproduce-thm31"], ["reproduce-thm33"],
                                         ["diagnose", "--functional", "linear"]])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_must_be_positive(self, tmp_path, capsys, command, budget):
        assert run(command + ["--budget", budget, "--out", str(tmp_path)],
                   tmp_path) == EXIT_USAGE
        assert f"--budget must be at least 1, got {budget}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_budget_below_one_panel_evaluates_nothing(self, tmp_path, monkeypatch):
        # --budget caps the evaluations of every verdict, end to end
        calls = []
        real = quad._gk_panels
        monkeypatch.setattr(quad, "_gk_panels", lambda *a: calls.append(a) or real(*a))
        assert run(["reproduce-thm31", "--budget", "1", "--out", str(tmp_path)],
                   tmp_path) == EXIT_INCONCLUSIVE
        assert calls == []

    def test_chain_violation_is_a_contradiction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diagnostics, "_ssgd_result", lambda q, h_T, table, atol:
                            SsgdResult(q, h_T, (), Flag.NO, None))
        assert run(["diagnose", "--functional", "linear", "--out", str(tmp_path)],
                   tmp_path) == EXIT_CONTRADICTION
        text = (tmp_path / "linear-diagnose.md").read_text(encoding="utf-8")
        assert "**Inconsistent report**: in_plus is Yes but ssgd_pp is No" in text

    @pytest.mark.parametrize("command, flag", [("reproduce-thm31", Flag.YES),
                                               ("reproduce-thm33", Flag.NO)])
    def test_expectation_mismatch_is_a_contradiction(self, tmp_path, monkeypatch, capsys,
                                                     command, flag):
        # ssgd_pp answers the opposite of the expected flag, with a consistent chain
        monkeypatch.setattr(diagnostics, "_ssgd_result", lambda q, h_T, table, atol:
                            SsgdResult(q, h_T, (), flag, None))
        assert run([command, "--out", str(tmp_path)], tmp_path) == EXIT_CONTRADICTION
        assert "CONTRADICTION" in capsys.readouterr().err
        text = (tmp_path / f"{command.split('-')[1]}-report.md").read_text(encoding="utf-8")
        assert "**Inconsistent report**" not in text

    @pytest.mark.parametrize("argv", [["reproduce-thm31", "--seed", "7"],
                                      ["reproduce-thm33", "--n-samples", "10"],
                                      ["diagnose", "--functional", "linear", "--seed", "7"],
                                      ["cm-check", "--budget", "5"],
                                      ["cm-check", "--eps-grid", "1..4"],
                                      # nor does a flag abbreviate
                                      ["diagnose", "--functional", "linear", "--bud", "5"]])
    def test_flags_of_other_commands_rejected(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path)], tmp_path) == EXIT_USAGE
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", [("reproduce-thm31", "h"),
                                              ("reproduce-thm33", "delta"),
                                              ("diagnose --functional linear", "q"),
                                              ("cm-check", "shift")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_list_rejected(self, tmp_path, command, key, source):
        # --h= and --delta= ran a report with nothing to test, --shift= used
        # the first direction
        argv = command.split()
        if source == "flag":
            argv.append(f"--{key}=")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} =\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("atol", "inf"), ("atol", "nan"), ("atol", "-1e-10"),
                                            ("rtol", "inf"), ("rtol", "nan"), ("rtol", "-1e-8"),
                                            ("delta", "0"), ("delta", "-0.5"), ("delta", "inf"),
                                            ("delta", "0.1,nan"), ("h", "1,1"), ("h", "nan"),
                                            ("h", "inf"), ("h", "1,-inf")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_tolerance_delta_or_endpoint_rejected(self, tmp_path, key, value, source):
        # --atol inf and --delta=0 certified in_plus = yes for thm31 (exit 1),
        # --atol nan spent every budget, and --h=1,1 wrote the L^q rows twice
        argv = ["reproduce-thm31", "--a", "6"]
        if source == "flag":
            argv.append(f"--{key}={value}")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        assert not out.exists()

    @staticmethod
    def cm_check_argv(tmp_path, key, value, source):
        argv = ["cm-check", "--n-samples", "1000"]
        if source == "flag":
            return argv + [f"--{key}={value}"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        return argv + ["--config", str(cfg)]

    @pytest.mark.parametrize("command", ["reproduce-thm31", "cm-check"])
    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys, command):
        # a FileNotFoundError traceback, with exit 1 (the contradiction code)
        missing = tmp_path / "no-such.cfg"
        assert run([command, "--config", str(missing)], tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys, source):
        # a FileExistsError traceback, with exit 1 (the contradiction code)
        out = tmp_path / "taken"
        out.write_text("kept\n", encoding="utf-8")
        argv = self.cm_check_argv(tmp_path, "out", str(out), source)
        assert run(argv, tmp_path) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert out.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("key, value", [("direction", "nan"), ("direction", "1,inf"),
                                            ("shift", "inf"), ("poly", "nan*x1"),
                                            ("poly", "1e400*x1"), ("poly", "1e200*1e200*x1")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cm_check_non_finite_input_rejected(self, tmp_path, key, value, source):
        # these wrote cm_lhs_shifted_mean,,,converged,inf,nan rows and exited 1
        out = tmp_path / "out"
        argv = self.cm_check_argv(tmp_path, key, value, source)
        assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cm_check_non_finite_mean_is_inconclusive(self, tmp_path, capsys, source):
        # a finite direction whose Monte Carlo mean overflows certifies nothing
        out = tmp_path / "out"
        argv = self.cm_check_argv(tmp_path, "direction", "1e200", source)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv + ["--out", str(out)], tmp_path) == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in capsys.readouterr().err
        with open(out / "cm-check.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [r["verdict"] for r in rows] == ["inconclusive", "inconclusive"]
        assert "-> inconclusive" in (out / "cm-check.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("key, value", [("shift", "5"), ("shift", "8"), ("shift", "10"),
                                            ("direction", "1e100")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cm_check_degenerate_weights_are_inconclusive(self, tmp_path, capsys, key, value,
                                                          source):
        # at 1e6 paths --shift 5, 8 and 10 exited 1 with a false CONTRADICTION
        # (rhs 9.03 +- 3.61 against lhs = E[(W + 5)^2] = 26), and --direction
        # 1e100 wrote a converged,0.0,0.0 rhs row: a few weights carry the whole
        # reweighted mean, or none does
        out = tmp_path / "out"
        argv = ["cm-check"]
        if source == "flag":
            argv.append(f"--{key}={value}")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv + ["--out", str(out)], tmp_path) == EXIT_INCONCLUSIVE
        assert "effective sample size of the weights" in capsys.readouterr().err
        with open(out / "cm-check.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        verdicts = {r["quantity"]: r["verdict"] for r in rows}
        assert verdicts["cm_rhs_reweighted_mean"] == "inconclusive"
        # the shifted side is a plain mean: it stays certified where it is finite
        assert verdicts["cm_lhs_shifted_mean"] == ("converged" if key == "shift"
                                                   else "inconclusive")
        assert "-> inconclusive" in (out / "cm-check.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cm_check_overflow_is_inconclusive_without_warnings(self, tmp_path, capsys, source):
        # x1^4 overflows at 1e100 while every weight underflows to 0, so the rhs
        # is NaN from inf * 0; numpy printed RuntimeWarnings next to the verdict
        out = tmp_path / "out"
        argv = ["cm-check", "--n-samples", "1000", "--out", str(out)]
        if source == "flag":
            argv += ["--poly", "x1^4", "--direction", "1e100"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("poly = x1^4\ndirection = 1e100\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv, tmp_path) == EXIT_INCONCLUSIVE
        assert "Warning" not in capsys.readouterr().err
        with open(out / "cm-check.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [r["verdict"] for r in rows] == ["inconclusive", "inconclusive"]
        assert [r["value"] for r in rows] == ["inf", "nan"]

    @pytest.mark.parametrize("argv, message", [
        (["diagnose"], "--functional is required"),
        (["cm-check", "--poly", "x1*x2"], "polynomial uses x1..x2 but only 1 direction(s) given"),
        (["reproduce-thm31", "--a", "1.0"], "need a finite a > 3/2, got a=1.0"),
        (["reproduce-thm33", "--eta", "2e-4", "--mu", "1e-4"],
         "invalid (eta, mu): ordering: need 0 < eta < mu < 1/e"),
    ])
    def test_parameter_error_text(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("q", ["3", "0", "nan"])
    def test_residual_exponent_above_p_rejected(self, tmp_path, capsys, q):
        out = tmp_path / "out"
        assert run(["reproduce-thm31", "--a", "6", "--h=1", "--q", q, "--out", str(out)],
                   tmp_path) == EXIT_USAGE
        assert "need 0 < q <= p" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("functional, key", [("linear", "a"), ("linear", "mu"),
                                                 ("thm31", "eta"), ("thm33", "a")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_parameter_of_another_functional_rejected(self, tmp_path, capsys, functional,
                                                      key, source):
        # diagnose --functional linear --a 3 ran the linear report as if --a were absent
        argv = ["diagnose"]
        if source == "flag":
            argv += ["--functional", functional, f"--{key}", "3"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"functional = {functional}\n{key} = 3\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        assert f"--functional {functional} takes no parameter --{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["reproduce-thm31", "--p", "inf"],
                                      ["reproduce-thm31", "--p", "nan"],
                                      ["reproduce-thm33", "--p", "inf"],
                                      ["reproduce-thm31", "--a", "inf"],
                                      ["diagnose", "--functional", "thm31", "--a", "inf"]])
    def test_non_finite_p_or_a_rejected(self, tmp_path, capsys, argv):
        # --p inf wrote a report of 34 inconclusive rows (exit 2); --a inf
        # exited 64 only after a numpy RuntimeWarning from the gluing check
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv + ["--out", str(out)], tmp_path) == EXIT_USAGE
        assert not caught
        err = capsys.readouterr().err
        assert "Warning" not in err and ("finite p > 1" in err or "finite a > 3/2" in err)
        assert not out.exists()

    def test_zero_atol_accepted(self, tmp_path):
        assert run(["reproduce-thm31", "--a", "6", "--h=1", "--atol", "0", "--out",
                    str(tmp_path)], tmp_path) == EXIT_OK

    def test_budget_from_config_checked(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = 0\n", encoding="utf-8")
        assert run(["reproduce-thm31", "--config", str(cfg)], tmp_path) == EXIT_USAGE


class TestCallCounts:
    @pytest.mark.parametrize("command, most", [("reproduce-thm31", 33),
                                               ("reproduce-thm33", 58),
                                               ("diagnose --functional linear", 33)])
    def test_default_report(self, tmp_path, monkeypatch, command, most):
        # the eps rows of a report share each round's integrand call, and a
        # reflected piece shares the call of its family; one row after another
        # took 1,360 (thm31) and 2,126 (thm33) calls, one call per route 315,
        # 312 and 180 (linear).  They take 30, 53 and 30 now (thm31 38 while
        # the lines that a declared growth decides ran their other pieces,
        # thm33 81 while the lines that its declared origin decides ran);
        # each cap is 10% above
        calls = []
        real = quad._gk_panels

        def counting(log_eval, a, b):
            calls.append(a.size)
            return real(log_eval, a, b)

        monkeypatch.setattr(quad, "_gk_panels", counting)
        assert run(command.split() + ["--out", str(tmp_path)], tmp_path) == EXIT_OK
        assert len(calls) <= most
        assert 15 * max(calls) <= quad.MAX_POINTS == 1920


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1.0\n", encoding="utf-8")
        assert run(["reproduce-thm31", "--config", str(cfg)], tmp_path) == EXIT_USAGE

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1.0\nout = " + str(tmp_path) + "\n", encoding="utf-8")
        code = run(["reproduce-thm31", "--config", str(cfg), "--a", "2.0"], tmp_path)
        assert code == EXIT_OK

    def test_config_file_supplies_lists(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("functional = linear\nh=1,-1\ndelta = 0.1\nformat = csv\n",
                       encoding="utf-8")
        assert run(["diagnose", "--config", str(cfg)], tmp_path) == EXIT_OK
        text = (tmp_path / "linear-diagnose.csv").read_text(encoding="utf-8")
        assert "dvp_total[h=1]" in text and "dvp_total[h=-1]" in text

    def test_unset_catalog_parameters_keep_their_defaults(self, tmp_path, capsys):
        # eta keeps its default 1e-4, so mu = 5e-5 breaks 0 < eta < mu
        assert run(["diagnose", "--functional", "thm33", "--mu", "5e-5"],
                   tmp_path) == EXIT_USAGE
        assert "ordering" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1.5e-4\nh = 1\nformat = md\n", encoding="utf-8")
        assert run(["reproduce-thm33", "--config", str(cfg), "--out", str(tmp_path)],
                   tmp_path) == EXIT_OK
        text = (tmp_path / "thm33-report.md").read_text(encoding="utf-8")
        assert "parameters: {'eta': 0.0001, 'mu': 0.00015}" in text

    def test_env_var_sets_output_dir(self, tmp_path):
        code = run(["diagnose", "--functional", "linear", "--delta", "0.1",
                    "--h", "1.0", "--format", "csv"], tmp_path)
        assert code == EXIT_OK
        assert (tmp_path / "linear-diagnose.csv").exists()

    @pytest.mark.parametrize("line", ["bugdet = 1", "config = other.cfg",
                                      "command = cm-check", "bud = 5", "eps_grid = 2..5",
                                      "format = pdf"])
    def test_unknown_config_key_rejected(self, tmp_path, line):
        # a misspelt key is a usage error, as the misspelt flag --bugdet is;
        # so are the parser's own names, which no flag of the command sets.
        # A line is the flag --key=value: a key is a flag's exact name (no
        # abbreviation, no variant spelling), and a value keeps to its choices
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["diagnose", "--functional", "linear", "--config", str(cfg),
                    "--out", str(out)], tmp_path) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("reproduce-thm31", EXIT_USAGE),
                                               ("cm-check", EXIT_OK)])
    def test_config_keys_of_other_commands(self, tmp_path, command, code):
        # the reports take no seed or sample count; cm-check takes both
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nn-samples = 1000\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)], tmp_path) == code
        assert out.exists() == (code == EXIT_OK)

    def test_direction_flag_replaces_config_directions(self, tmp_path):
        # repeatable: config lines add directions, and the command line's replace them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("poly = x1*x2\ndirection = 1\ndirection = 1,2\nshift = 0.5\n"
                       "n-samples = 1000\nformat = md\n", encoding="utf-8")
        assert run(["cm-check", "--config", str(cfg), "--out", str(tmp_path)],
                   tmp_path) == EXIT_OK
        assert run(["cm-check", "--config", str(cfg), "--direction", "3",
                    "--out", str(tmp_path)], tmp_path) == EXIT_USAGE
        assert run(["cm-check", "--config", str(cfg), "--direction", "3", "--direction", "1",
                    "--poly", "x1", "--out", str(tmp_path)], tmp_path) == EXIT_OK
        text = (tmp_path / "cm-check.md").read_text(encoding="utf-8")
        assert "polynomial: `x1`; shift norm: 0.5; samples: 1000" in text

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n", encoding="utf-8")
        assert run(["reproduce-thm31", "--config", str(cfg)], tmp_path) == EXIT_USAGE


class TestEpsGrid:
    @staticmethod
    def epsilons(path) -> set:
        with open(path, encoding="utf-8") as fh:
            next(fh)  # the schema line
            return {float(row["epsilon"]) for row in csv.DictReader(fh) if row["epsilon"]}

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rows_follow_the_range(self, tmp_path, source):
        argv = ["diagnose", "--functional", "linear", "--h", "1", "--format", "csv",
                "--out", str(tmp_path)]
        if source == "flag":
            argv += ["--eps-grid", "2..5"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("# eps = 2^-2 .. 2^-5\n\n   \n  eps-grid = 2..5\n# h = 0\n",
                           encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert run(argv, tmp_path) == EXIT_OK
        assert self.epsilons(tmp_path / "linear-diagnose.csv") == {2.0 ** -k for k in range(2, 6)}

    @pytest.mark.parametrize("spec", ["5..2", "0..3", "2-5"])
    def test_bad_range_rejected(self, tmp_path, spec):
        out = tmp_path / "out"
        assert run(["diagnose", "--functional", "linear", "--eps-grid", spec,
                    "--out", str(out)], tmp_path) == EXIT_USAGE
        assert not out.exists()


def final_table(text: str) -> list:
    """The cells of each line of the table that ends a Markdown text."""
    lines = text.rstrip("\n").split("\n")
    start = len(lines)
    while start and lines[start - 1].startswith("|"):
        start -= 1
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[start:]]


class TestMarkdownEvidence:
    @pytest.mark.parametrize("argv, stem", [
        (["reproduce-thm31", "--a", "3.25", "--h=1"], "thm31-report"),
        (["reproduce-thm33"], "thm33-report"),
        (["diagnose", "--functional", "linear"], "linear-diagnose"),
        (["cm-check", "--n-samples", "1000"], "cm-check"),
    ])
    def test_table_rows_are_the_csv_rows(self, tmp_path, argv, stem):
        # every Markdown file ends with the CSV's header and data rows, in order
        assert run(argv + ["--out", str(tmp_path)], tmp_path) == EXIT_OK
        csv_lines = (tmp_path / f"{stem}.csv").read_text(encoding="utf-8").splitlines()
        table = final_table((tmp_path / f"{stem}.md").read_text(encoding="utf-8"))
        assert table[0] == csv_lines[1].split(",")
        assert set(table[1]) == {"---"} and len(table[1]) == len(table[0])
        assert table[2:] == [line.split(",") for line in csv_lines[2:]]
        assert len(table[2:]) >= 2

    def test_markdown_alone_has_the_same_table(self, tmp_path):
        argv = ["diagnose", "--functional", "linear", "--h", "1"]
        both, md = tmp_path / "both", tmp_path / "md"
        assert run(argv + ["--out", str(both)], tmp_path) == EXIT_OK
        assert run(argv + ["--format", "md", "--out", str(md)], tmp_path) == EXIT_OK
        assert [p.name for p in md.iterdir()] == ["linear-diagnose.md"]
        assert ((md / "linear-diagnose.md").read_bytes()
                == (both / "linear-diagnose.md").read_bytes())
        csv_lines = (both / "linear-diagnose.csv").read_text(encoding="utf-8").splitlines()
        table = final_table((md / "linear-diagnose.md").read_text(encoding="utf-8"))
        assert table[2:] == [line.split(",") for line in csv_lines[2:]]


class TestDeterminism:
    def test_same_seed_same_csv_bytes(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            code = run(["diagnose", "--functional", "thm31", "--delta", "0.1",
                        "--h", "1.0", "--format", "csv",
                        "--out", str(d)], tmp_path)
            assert code == EXIT_OK
        b1 = (d1 / "thm31-diagnose.csv").read_bytes()
        b2 = (d2 / "thm31-diagnose.csv").read_bytes()
        assert b1 == b2

    def test_cm_check_same_seed_same_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["cm-check", "--n-samples", "20000", "--seed", "11",
                        "--format", "csv", "--out", str(d)], tmp_path) == EXIT_OK
        assert (d1 / "cm-check.csv").read_bytes() == (d2 / "cm-check.csv").read_bytes()


class TestDeclaredSupport:
    """thm33 declares its support (0, 2 mu); a report built from a copy that
    declares the whole line runs every piece.  Both write the same bytes; every
    piece that runs in both ends the same in every field, and the skipped ones
    end Converged 0 +- 0 with n_evals 0."""

    @staticmethod
    def report(argv, out, monkeypatch, whole_line):
        """Exit code, files, piece outcomes and _lockstep verdicts of one report."""
        build = cli.catalog_build
        if whole_line:
            monkeypatch.setattr(cli, "catalog_build", lambda name, **params: dataclasses.replace(
                build(name, **params), support=(-math.inf, math.inf)))
        pieces, verdicts = [], []
        outcomes, lockstep = quad._outcomes, quad._lockstep

        def recording(real, seen, split):
            def call(arg):
                got = real(arg)
                seen.extend(split(got))
                return got
            return call

        monkeypatch.setattr(quad, "_outcomes", recording(outcomes, pieces, list))
        monkeypatch.setattr(quad, "_lockstep",
                            recording(lockstep, verdicts, compare_outputs._verdicts))
        code = run(argv + ["--out", str(out)], out)
        monkeypatch.undo()
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}, pieces, verdicts

    @pytest.mark.parametrize("argv", [
        ["reproduce-thm33"],
        ["reproduce-thm33", "--h=0.3,-2.5", "--atol", "1e-12"],
        ["reproduce-thm33", "--budget", "50"],
        ["diagnose", "--functional", "thm33", "--p", "2.5", "--q", "1.2"],
    ])
    def test_reports_equal_the_whole_line_run(self, tmp_path, monkeypatch, argv):
        code, files, pieces, verdicts = self.report(argv, tmp_path / "declared", monkeypatch,
                                                    False)
        ref_code, ref_files, ref_pieces, ref_verdicts = self.report(
            argv, tmp_path / "whole", monkeypatch, True)
        assert code == ref_code and len(files) == 2 and files == ref_files
        assert len(pieces) == len(ref_pieces) and len(verdicts) == len(ref_verdicts)
        skipped = 0
        for v, ref in zip(pieces, ref_pieces):
            if "outside the support" not in v.message:
                assert v == ref
                continue
            skipped += 1
            assert (v.status, v.value, v.abs_error, v.n_evals) == ("converged", 0.0, 0.0, 0)
            # run, the piece certifies its exact 0, or runs out of budget first
            assert ((ref.status, ref.value, ref.abs_error) == ("converged", 0.0, 0.0)
                    or ref.status == "inconclusive")
        assert skipped >= 12  # the two outer pieces of each of the six seminorm lines, at least
        for (status, value, err, n_evals, message, evidence), ref in zip(verdicts, ref_verdicts):
            assert [status, value, err, evidence] == [ref[0], ref[1], ref[2], ref[5]]
            assert n_evals <= ref[3]
            # an Inconclusive line names its first failing piece, which may now be a later one
            assert (message == ref[4] or "outside the support" in message
                    or status == "inconclusive")


class TestDeclaredTail:
    """thm31 declares its tail (1/4, a).  These reports exited 1, with
    divergent rows certified Converged; against a copy that declares no tail,
    every CSV row that changes goes to Diverged, and only rows whose tail
    diverges change."""

    @staticmethod
    def rows(path):
        """{(quantity, q, epsilon): (verdict, value, abs_error)} of a report CSV."""
        lines = path.read_text(encoding="utf-8").splitlines()[2:]
        return {tuple(line.split(",")[:3]): tuple(line.split(",")[3:]) for line in lines}

    @staticmethod
    def diverges(quantity, q):
        """The rows of a thm31 report whose tail diverges (perfbench/checks.py's
        expected_verdict): moments past q = 2, and the squared h > 0 rows."""
        name, _, h = quantity.rstrip("]").partition("[h=")
        if name in ("abs_moment", "deriv_moment"):
            return float(q) > 2.0
        return name in ("diffquot_residual", "dvp_above") and float(h) > 0 and float(q) == 2.0

    @pytest.mark.parametrize("argv", [["--a", "7"], ["--a", "7.5"], ["--a", "8"],
                                      ["--a", "6", "--h=0.5,-0.5"]])
    def test_reports_exit_0(self, tmp_path, monkeypatch, argv):
        argv = ["reproduce-thm31", *argv, "--format", "csv", "--out"]
        assert run(argv + [str(tmp_path / "declared")], tmp_path) == EXIT_OK
        build = cli.catalog_build

        def undeclared(name, **params):
            return dataclasses.replace(build(name, **params), tail=None)

        monkeypatch.setattr(cli, "catalog_build", undeclared)
        assert run(argv + [str(tmp_path / "undeclared")], tmp_path) == EXIT_CONTRADICTION
        new, old = (self.rows(tmp_path / side / "thm31-report.csv")
                    for side in ("declared", "undeclared"))
        assert set(new) <= set(old)
        changed = [key for key in old if new.get(key) != old[key]]
        assert changed
        for key in changed:
            quantity, q, _ = key
            if key not in new:  # a dvp_total row, which only an all-Converged eps has
                assert quantity.startswith("dvp_total[") and old[key][0] == "converged"
                continue
            assert new[key] == ("diverged", "", "") and old[key][0] != "diverged"
            assert self.diverges(quantity, q), key


class TestDeclaredOrigin:
    """thm33 declares its origin (1/2, 3).  At --budget 50 the exhaustion of
    E|f'|^2.1 and E|f'|^2.5 runs out before it certifies their divergence at
    0; against a copy that declares no origin, these two rows go from
    Inconclusive to Diverged, and no other row changes."""

    def test_budget_50_certifies_the_divergent_moments(self, tmp_path, monkeypatch):
        argv = ["reproduce-thm33", "--budget", "50", "--format", "csv", "--out"]
        code = run(argv + [str(tmp_path / "declared")], tmp_path)
        build = cli.catalog_build

        def undeclared(name, **params):
            return dataclasses.replace(build(name, **params), origin=None)

        monkeypatch.setattr(cli, "catalog_build", undeclared)
        assert run(argv + [str(tmp_path / "undeclared")], tmp_path) == code
        new, old = (TestDeclaredTail.rows(tmp_path / side / "thm33-report.csv")
                    for side in ("declared", "undeclared"))
        assert set(new) == set(old)
        changed = {key: (old[key][0], new[key]) for key in old if new[key] != old[key]}
        assert changed == {("deriv_moment", repr(q), ""): ("inconclusive", ("diverged", "", ""))
                           for q in (2.1, 2.5)}


class TestParserReuse:
    def test_out_default_is_read_per_call(self, tmp_path, capsys):
        # one parser serves every call of the process: each call reads
        # $WIENERLAB_OUT as it runs, and a usage error leaves nothing behind
        argv = ["cm-check", "--n-samples", "1000", "--format", "csv"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv, a) == EXIT_OK
        assert run(["cm-check", "--n-samples", "many", "--format", "md"], b) == EXIT_USAGE
        assert run(["cm-check", "--format", "md", "--no-such-flag"], b) == EXIT_USAGE
        assert not b.exists()
        assert run(argv, b) == EXIT_OK
        assert [p.name for p in a.iterdir()] == [p.name for p in b.iterdir()] == ["cm-check.csv"]
        assert (a / "cm-check.csv").read_bytes() == (b / "cm-check.csv").read_bytes()
        out = capsys.readouterr().out
        assert f"wrote {a / 'cm-check.csv'}" in out and f"wrote {b / 'cm-check.csv'}" in out
        assert cli.build_parser() is cli.build_parser()


def test_console_entrypoint_runs(tmp_path):
    # the subprocess imports this checkout's package, installed or not
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "wienerlab.cli", "cm-check", "--n-samples", "10000",
         "--out", str(tmp_path), "--format", "csv"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
    assert "within 3 SE" in proc.stdout
