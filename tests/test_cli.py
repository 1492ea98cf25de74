"""Command-line interface: exit codes, output files, determinism."""

import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hjmm
from hjmm.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_EXPLOSION,
    EXIT_INDETERMINATE,
    EXIT_MC_FAILED,
    EXIT_OK,
    _write_field_csvs,
    main,
)
from hjmm.config import load_config
from hjmm.grids import GridSpec, RateField
from hjmm.paths import field_b, simulate_path
from hjmm.solver import apriori_bound, weighted_norms


def _write(tmp_path, doc, name="run.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _existence_doc() -> dict:
    return {
        "version": 1,
        "levy": {
            "drift_a": "subordinator",
            "measure": {"family": "gamma_like", "c": 0.5, "beta": 2.0},
        },
        "volatility": {"terms": [{"kind": "constant", "level": 0.2}]},
        "initial_curve": {"family": "exponential_decay", "level": 0.08,
                          "rate": 0.4},
        "grid": {"delta": 0.125, "t_star": 1.0, "t_max": 2.0, "gamma": 1.0},
        "mc": {"n_paths": 16, "master_seed": 3},
    }


def _user_density_doc() -> dict:
    # the README model with its gamma measure written as a user density
    doc = _existence_doc()
    doc["levy"]["measure"] = {"family": "user_density",
                              "expression": "0.5*exp(-2*y)/y"}
    return doc


def _explosive_doc() -> dict:
    doc = _existence_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "stable_like", "c": 1.0,
                               "alpha": 1.5, "y_max": 1.0}}
    return doc


def _indeterminate_doc() -> dict:
    doc = _existence_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "stable_like", "c": 1.0,
                               "alpha": 1.0, "y_max": 1.0}}
    return doc


class TestClassify:
    def test_existence_exit_zero(self, tmp_path) -> None:
        cfg = _write(tmp_path, _existence_doc())
        code = main(["classify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["verdict"] == "ExistenceLogGrowth"
        assert payload["rule_fired"] == "Subordinator"

    def test_explosive_exit_two(self, tmp_path) -> None:
        cfg = _write(tmp_path, _explosive_doc())
        code = main(["classify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_EXPLOSION

    def test_indeterminate_exit_three(self, tmp_path) -> None:
        cfg = _write(tmp_path, _indeterminate_doc())
        code = main(["classify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_INDETERMINATE


class TestSolve:
    def test_converged_solve_writes_report_and_fields(self, tmp_path) -> None:
        cfg = _write(tmp_path, _existence_doc())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["status"] == "Converged"
        standard = (tmp_path / "field_standard.csv").read_text()
        assert standard.splitlines()[0] == "t,T,f"
        musiela = (tmp_path / "field_musiela.csv").read_text()
        assert musiela.splitlines()[0] == "t,x,r"

    def test_explosive_config_refused_without_flag(self, tmp_path, capsys) -> None:
        cfg = _write(tmp_path, _explosive_doc())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_EXPLOSION
        assert "refusing" in capsys.readouterr().err
        assert not (tmp_path / "solve_report.json").exists()

    def test_allow_explosive_runs_and_reports_divergence(self, tmp_path) -> None:
        doc = _explosive_doc()
        doc["initial_curve"] = {"family": "constant", "level": 100.0}
        doc["volatility"] = {"terms": [{"kind": "constant", "level": 0.25}]}
        doc["solver"] = {"max_iter": 50, "explosion_threshold": 1e6}
        doc["mc"] = {"eps": 1e-2, "n_paths": 4, "master_seed": 900}
        cfg = _write(tmp_path, doc)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--allow-explosive"])
        assert code == EXIT_DIVERGED
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["status"] == "Exploded"

    def test_huge_expected_jump_count_exits_one_without_traceback(
            self, tmp_path, capsys) -> None:
        # classified existence, but 1e13 jumps per path expected
        doc = _existence_doc()
        doc["levy"]["measure"] = {"family": "point_masses",
                                  "atoms": [[0.1, 1e13]]}
        cfg = _write(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "jumps per path expected" in err
        assert "Traceback" not in err

    def test_report_records_apriori_bound(self, tmp_path) -> None:
        # the README model: c1_bound is the bound for r0_norm = weighted L2
        # norm of f0 on the maturity nodes and b_sup = max of the factor field
        cfg = _write(tmp_path, _existence_doc())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        config = load_config(cfg)
        grid = config.grid
        path = simulate_path(config.levy, grid.t_star, [3, 0],
                             eps=config.mc["eps"])
        b = field_b(config.volatility, path, grid)
        r0_norm = weighted_norms(config.curve(grid.T_nodes())[None, :],
                                 grid, 0.0).l2_gamma
        expected = apriori_bound(config.levy, config.volatility, grid,
                                 r0_norm, float(np.max(b)))
        assert math.isfinite(report["c1_bound"])
        assert report["c1_bound"] == expected

    def test_user_density_matches_gamma_twin(self, tmp_path) -> None:
        # the README model and its user-density twin draw the same path
        # from the same seed and solve it to the same field
        user, twin = tmp_path / "user", tmp_path / "twin"
        for doc, out in ((_user_density_doc(), user), (_existence_doc(), twin)):
            cfg = _write(tmp_path, doc, f"{out.name}.json")
            assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        got = json.loads((user / "solve_report.json").read_text())
        want = json.loads((twin / "solve_report.json").read_text())
        assert got["status"] == want["status"] == "Converged"
        assert got["iterations"] == want["iterations"]
        np.testing.assert_allclose(got["norm_trace"], want["norm_trace"],
                                   rtol=1e-10, atol=0.0)
        # the CSVs keep 11 significant digits, at most 5e-11 relative off
        for name in ("field_standard.csv", "field_musiela.csv"):
            np.testing.assert_allclose(
                np.loadtxt(user / name, delimiter=",", skiprows=1),
                np.loadtxt(twin / name, delimiter=",", skiprows=1),
                rtol=1e-10, atol=0.0)

    def test_rerun_is_byte_identical(self, tmp_path) -> None:
        cfg = _write(tmp_path, _existence_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("solve_report.json", "field_standard.csv",
                     "field_musiela.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_debug_log_records_the_path(self, tmp_path, caplog) -> None:
        cfg = _write(tmp_path, _existence_doc())
        caplog.set_level(logging.DEBUG, logger="hjmm")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        records = [r for r in caplog.records if r.name.startswith("hjmm.")]
        # one record per iteration, then one for the path
        assert len(records) == report["iterations"] + 1
        assert all(r.levelno == logging.DEBUG for r in records)
        for k, (record, sup, norm) in enumerate(zip(
                records, report["sup_diffs"], report["norm_trace"]), 1):
            assert record.getMessage().startswith(
                f"path [3, 0] iteration {k}: sup_diff {sup!r}, norm {norm!r}, "
                "min increment ")
        assert records[-1].getMessage() == (
            f"path [3, 0]: {report['n_jumps']} jumps, Converged after "
            f"{report['iterations']} iterations")


class TestVerify:
    def test_all_suites_pass(self, tmp_path, capsys) -> None:
        cfg = _write(tmp_path, _existence_doc())
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "verification.json").read_text())
        assert payload["all_passed"]
        lines = capsys.readouterr().out.splitlines()
        suite_lines = [ln for ln in lines if ln.startswith("verify ")]
        assert len(suite_lines) == 6
        assert all(": pass" in ln for ln in suite_lines)


def _assert_worker_count_keeps_bytes(tmp_path, doc) -> None:
    doc["mc"] = {"n_paths": 12, "master_seed": 11}
    cfg = _write(tmp_path, doc)
    out1, out2 = tmp_path / "serial", tmp_path / "forked"
    assert main(["mc", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == EXIT_OK
    assert main(["mc", "--config", cfg, "--out", str(out2),
                 "--threads", "2"]) == EXIT_OK
    assert ((out1 / "martingale.csv").read_bytes()
            == (out2 / "martingale.csv").read_bytes())
    assert ((out1 / "martingale.json").read_bytes()
            == (out2 / "martingale.json").read_bytes())


class TestMc:
    def test_deterministic_model_passes(self, tmp_path) -> None:
        doc = _existence_doc()
        doc["levy"] = {"drift_a": 1.0}
        doc["initial_curve"] = {"family": "affine", "intercept": 1.0,
                                "slope": 1.0}
        cfg = _write(tmp_path, doc)
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "martingale.json").read_text())
        assert summary["passed"] and summary["valid"]
        assert summary["n_excluded"] == 0
        table = (tmp_path / "martingale.csv").read_text()
        header = table.splitlines()[0]
        assert header == ("t,T,mean_discounted,reference,deviation,std,"
                          "z_score,degenerate")

    def test_single_path_fails_with_exit_six(self, tmp_path) -> None:
        doc = _existence_doc()
        doc["mc"] = {"n_paths": 1, "master_seed": 3}
        cfg = _write(tmp_path, doc)
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_MC_FAILED

    def test_default_checkpoints_on_a_tenth_grid(self, tmp_path) -> None:
        # 0.25 and 0.75 of t_star are no nodes at delta = 0.1
        doc = _existence_doc()
        doc["grid"]["delta"] = 0.1
        cfg = _write(tmp_path, doc)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "martingale.json").read_text())
        assert summary["valid"]

    def test_worker_count_keeps_bytes_identical(self, tmp_path) -> None:
        _assert_worker_count_keeps_bytes(tmp_path, _existence_doc())

    def test_user_density_worker_count_keeps_bytes_identical(self,
                                                             tmp_path) -> None:
        # a user density's cached rule and integrals must not depend on
        # which worker thread computed them
        _assert_worker_count_keeps_bytes(tmp_path, _user_density_doc())

    def test_summary_counts_exclusions_by_cause(self, tmp_path) -> None:
        doc = _explosive_doc()
        doc["volatility"] = {"terms": [{"kind": "constant", "level": 0.25}]}
        doc["initial_curve"] = {"family": "constant", "level": 26.0}
        doc["solver"] = {"max_iter": 20, "explosion_threshold": 1e300}
        doc["mc"] = {"n_paths": 24, "master_seed": 7, "eps": 1e-2}
        cfg = _write(tmp_path, doc)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == EXIT_MC_FAILED
        summary = json.loads((tmp_path / "martingale.json").read_text())
        causes = summary["excluded_by_cause"]
        assert sorted(causes) == ["Exploded", "MaxIterations",
                                  "NonPositiveFactor"]
        assert causes["Exploded"] > 0 and causes["MaxIterations"] > 0
        assert sum(causes.values()) == summary["n_excluded"]

    def test_truncation_above_the_support_is_refused(self, tmp_path,
                                                     capsys) -> None:
        # no stable-like jump lies above y_max = 1, so every path would
        # be drawn without jumps
        doc = _explosive_doc()
        doc["mc"] = {"n_paths": 4, "master_seed": 3, "eps": 2.0}
        cfg = _write(tmp_path, doc)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert ("truncation level must lie in (0, y_max), got 2.0"
                in capsys.readouterr().err)

    def test_seed_flag_overrides_config(self, tmp_path) -> None:
        doc = _existence_doc()
        cfg = _write(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["mc", "--config", cfg, "--out", str(out),
                     "--seed", "77"]) == EXIT_OK
        summary = json.loads((out / "martingale.json").read_text())
        assert summary["master_seed"] == 77


class TestConfigErrors:
    def test_missing_file_exit_one(self, tmp_path) -> None:
        code = main(["classify", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_invalid_document_exit_one(self, tmp_path, capsys) -> None:
        doc = _existence_doc()
        doc["initial_curve"] = {"family": "affine", "intercept": 0.1,
                                "slope": -0.2}
        cfg = _write(tmp_path, doc)
        code = main(["classify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "(A1)" in capsys.readouterr().err

    def test_malformed_json_exit_one(self, tmp_path) -> None:
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["classify", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, setting", [
        ("outputs", {"directory": 5}),
        ("outputs", {"write_csv": "no"}),
        ("mc", {"n_paths": 10 ** 400}),
        ("solver", {"max_iter": 10 ** 400}),
        ("grid", {"delta": 1e-300, "t_star": 1.0, "t_max": 2.0,
                  "gamma": 1.0}),
    ])
    def test_bad_setting_exit_one_without_traceback(
            self, tmp_path, capsys, monkeypatch, section, setting) -> None:
        # no --out, so a directory setting would be used; files would
        # land in the test's own directory
        monkeypatch.chdir(tmp_path)
        doc = _existence_doc()
        doc[section] = setting
        command = "mc" if section == "mc" else "solve"
        code = main([command, "--config", _write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {section}.{next(iter(setting))}")
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]


class TestUsage:
    def test_usage_errors_exit_one(self, tmp_path, capsys) -> None:
        # argparse's own code 2 would read as an explosion verdict
        cfg = _write(tmp_path, _existence_doc())
        assert main(["solve"]) == EXIT_CONFIG
        assert main(["classify", "--config", cfg, "--threads", "2"]) == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                threads) -> None:
        cfg = _write(tmp_path, _existence_doc())
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "mc"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_seed_must_be_a_nonnegative_integer(self, tmp_path, capsys,
                                                command, seed) -> None:
        cfg = _write(tmp_path, _existence_doc())
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", seed]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_flags_only_where_read(self, tmp_path) -> None:
        cfg = _write(tmp_path, _existence_doc())
        for argv in (["classify", "--seed", "1"],
                     ["classify", "--allow-explosive"],
                     ["verify", "--threads", "2"],
                     ["verify", "--allow-explosive"],
                     ["mc", "--allow-explosive"],
                     ["solve", "--threads", "2"]):
            assert main(argv[:1] + ["--config", cfg] + argv[1:]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys) -> None:
        assert main(["mc", "--help"]) == EXIT_OK
        assert "--threads" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["basic_format", "_styles"])
    def test_log_name_that_is_no_level_reads_as_warning(self, tmp_path,
                                                        value) -> None:
        # in a fresh process, where the root logger has no handler yet
        env = dict(os.environ, HJMM_LOG=value, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(hjmm.__file__).parents[1])]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
               else [])))
        cfg = _write(tmp_path, _existence_doc())
        done = subprocess.run(
            [sys.executable, "-m", "hjmm.cli", "classify", "--config", cfg,
             "--out", str(tmp_path)], env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == EXIT_OK, done.stderr[-2000:]
        assert done.stderr == ""


def test_float_format_in_csv(tmp_path) -> None:
    cfg = _write(tmp_path, _existence_doc())
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    line = (tmp_path / "field_standard.csv").read_text().splitlines()[1]
    cells = line.split(",")
    # scientific notation with 10 digits after the point
    assert "e" in cells[2]
    mantissa = cells[2].split("e")[0]
    assert len(mantissa.split(".")[1]) == 10


def test_field_csvs_match_row_by_row_writer(tmp_path) -> None:
    # the whole-array writer against one formatted row per cell, in the
    # order (t, T) for the standard field and (t, x) for the Musiela one
    grid = GridSpec(delta=1.0 / 8.0, t_star=1.0, t_max=2.0, gamma=1.0)
    values = np.random.default_rng(6).normal(size=(grid.n_t + 1,
                                                   grid.n_cols + 1))
    values[0, :3] = (0.0, -0.0, np.inf)
    _write_field_csvs(str(tmp_path), RateField(values, grid))

    def rows_text(header, rows):
        return header + "\n" + "".join(
            ",".join(f"{v:.10e}" for v in row) + "\n" for row in rows)

    t_nodes, T_nodes = grid.t_nodes(), grid.T_nodes()
    standard = [(t, T, values[i, j]) for i, t in enumerate(t_nodes)
                for j, T in enumerate(T_nodes)]
    musiela = [(t, k * grid.delta, values[i, i + k])
               for i, t in enumerate(t_nodes)
               for k in range(values.shape[1] - i)]
    assert (tmp_path / "field_standard.csv").read_bytes() == rows_text(
        "t,T,f", standard).encode()
    assert (tmp_path / "field_musiela.csv").read_bytes() == rows_text(
        "t,x,r", musiela).encode()
