import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htfoliation
from click.testing import CliRunner

from htfoliation import analysis, checks, cli, models
from htfoliation.cli import main
from htfoliation.clifford import build_representation
from test_checks import sheared_s3


@pytest.fixture()
def runner():
    return CliRunner()


class TestCatalog:
    def test_text_listing(self, runner):
        res = runner.invoke(main, ["catalog"])
        assert res.exit_code == 0
        assert "quaternionic-hopf-s7" in res.output
        assert "horizontally-parallel" in res.output

    def test_json_listing(self, runner):
        res = runner.invoke(main, ["catalog", "--format", "json"])
        assert res.exit_code == 0
        entries = json.loads(res.output)
        assert len(entries) >= 6
        row = next(e for e in entries if e["name"] == "quaternionic-hopf-s7")
        assert (row["n"], row["m"], row["expected_kappa"]) == (4, 3, 2.0)

    def test_unknown_flag_is_usage_error(self, runner):
        res = runner.invoke(main, ["catalog", "--bogus"])
        assert res.exit_code == 2


class TestVerify:
    def test_heisenberg_all_checks_pass(self, runner):
        res = runner.invoke(main, ["verify", "heisenberg", "--points", "8",
                                   "--format", "json"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert all(r["status"] in ("pass", "skipped") for r in rows)

    def test_unnormalized_round_sphere_fails(self, runner):
        res = runner.invoke(main, ["verify", "round-s7-unnormalized",
                                   "--checks", "h-type", "--points", "8",
                                   "--format", "json"])
        assert res.exit_code == 1
        rows = json.loads(res.output)
        assert rows[0]["status"] == "fail"
        assert abs(rows[0]["details"]["lambda"] - 4.0) < 1e-9

    def test_unknown_model_exit_code(self, runner):
        res = runner.invoke(main, ["verify", "klein-bottle"])
        assert res.exit_code == 3

    def test_unknown_check_usage_error(self, runner):
        # names are checked before any model is loaded: an unknown check
        # with an unknown model is still a usage error, not exit 3
        for model in ("heisenberg", "nosuch"):
            res = runner.invoke(main, ["verify", model, "--checks", "magic"])
            assert res.exit_code == 2
            assert "unknown check 'magic'" in res.output

    def test_empty_check_selection_usage_error(self, runner):
        for checks in (",", " , ,", ""):
            res = runner.invoke(main, ["verify", "heisenberg", "--checks",
                                       checks])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert "error: no checks selected" in res.stderr.lower()

    def test_largest_seed_accepted(self, runner):
        for cmd in (["verify", "heisenberg", "--checks", "h-type,cd"],
                    ["cd", "heisenberg", "--K", "0", "--trials", "1"]):
            res = runner.invoke(main, cmd + ["--points", "4",
                                             "--seed", str(2 ** 128 - 1)])
            assert res.exit_code == 0, res.output

    def test_reports_byte_identical(self, runner):
        args = ["verify", "heisenberg", "--points", "8", "--seed", "7",
                "--checks", "axioms,h-type,yang-mills", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_model_file(self, runner, tmp_path):
        doc = {"kind": "htype-group", "name": "file-model", "epsilon": 1.0,
               "rep": build_representation(1).to_json()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--model-file", str(path),
                                   "--checks", "axioms,h-type",
                                   "--points", "8", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)[0]["model"] == "file-model"


class TestCheckTable:
    """``cli.CHECKS`` declares every check once; ``run_checks`` and
    ``verify`` read it."""

    def test_default_checks_are_the_table(self):
        assert cli.DEFAULT_CHECKS == list(cli.CHECKS)
        option = next(p for p in main.commands["verify"].params
                      if p.name == "check_list")
        assert option.default == ",".join(cli.CHECKS)
        for name in cli.CHECKS:
            assert name in option.help

    def test_entries_call_the_module_attributes(self, monkeypatch, heis):
        # tracers and tests replace these attributes; the table must call
        # the replacements, not the functions it saw at import
        seen = {}

        def h_type(model, points, seed, tol):
            seen["h-type"] = (model.name, points, seed, tol)
            return checks.CheckReport.from_residual("h-type", 0.5, tol, points)

        def cd(model, K, fs, points, seed, tol):
            seen["cd"] = (K, fs, points)
            return checks.CheckReport.from_residual("cd", 0.0, tol, points)

        monkeypatch.setattr(checks, "check_h_type", h_type)
        monkeypatch.setattr(cli, "ricci_horizontal",
                            lambda fb: np.diag([3.0, 5.0])[None])
        monkeypatch.setattr(analysis, "check_cd_inequality", cd)
        rows = cli.run_checks(heis, ["h-type", "cd"],
                              cli.RunConfig(points=4, seed=3, heavy_points=2))
        assert seen == {"h-type": ("heisenberg", 4, 3, cli.RunConfig.tol),
                        "cd": (3.0 - 1e-9, 10, 2)}
        assert [(r["check"], r["status"]) for r in rows] == [
            ("h-type", "fail"), ("cd", "pass")]

    def test_rank_deficient_frame_is_an_error_row(self):
        # the sheared S^3 has no adapted frame: the frame checks give error
        # rows, and the run goes on to the checks that build none
        rows = cli.run_checks(sheared_s3(), ["h-type", "axioms"],
                              cli.RunConfig(points=16, heavy_points=16))
        assert rows[0] == {
            "check": "h-type", "status": "error", "model": "sheared-s3",
            "reason": "horizontal span has rank 3, expected 2, at point 0"}
        assert (rows[1]["check"], rows[1]["status"]) == ("foliation-axioms",
                                                          "fail")

    def test_every_row_names_its_model(self, heis_quat):
        rows = cli.run_checks(heis_quat,
                              ["lemma-identities", "curvature-constancy"],
                              cli.RunConfig(points=4, heavy_points=4),
                              expected_kappa=0.0)
        assert len(rows) == 7          # six lemma rows and one skip
        assert rows[-1]["status"] == "skipped"
        assert all(r["model"] == "heisenberg-quat" for r in rows)


def test_report_bytes_do_not_depend_on_blas_threads():
    """The contractions run through BLAS; the JSON report must come out the
    same with one and with two OpenBLAS threads."""
    src = str(Path(htfoliation.__file__).resolve().parents[1])
    args = [sys.executable, "-m", "htfoliation.cli", "verify",
            "heisenberg-oct", "quaternionic-hopf-s7", "--points", "16",
            "--format", "json"]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen(args, env=env, stdout=subprocess.PIPE))
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


class TestSpectrum:
    def test_s3_comparison_line(self, runner):
        res = runner.invoke(main, ["spectrum", "complex-hopf-s3",
                                   "--degree", "1"])
        assert res.exit_code == 0
        assert "lambda_1 = 2" in res.output

    def test_csv_output(self, runner):
        res = runner.invoke(main, ["spectrum", "complex-hopf-s3",
                                   "--degree", "1", "--format", "csv"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "degree,eigenvalue"

    def test_group_backend_exit_code(self, runner):
        res = runner.invoke(main, ["spectrum", "heisenberg", "--degree", "1"])
        assert res.exit_code == 4

    def test_quaternionic_branch_read_from_the_catalog(self, runner,
                                                        catalog_models):
        # every catalog sphere that gets a bound: the catalog family agrees
        # with the measured J_1 J_2 J_3, and the bound is the sharp one
        sharp = {"quaternionic-hopf-s7": 4.0, "quaternionic-hopf-s11": 8.0}
        bounded = [s for s in models.catalog() if s.kind != "htype-group"
                   and s.expected_kappa and s.m >= 2]
        assert sorted(s.name for s in bounded) == sorted(sharp)
        for spec in bounded:
            detected = checks.detect_quaternionic(catalog_models[spec.name])
            assert (spec.kind == "quaternionic-hopf") == \
                (detected.status == "quaternionic"), spec.name
            res = runner.invoke(main, ["spectrum", spec.name, "--degree", "2",
                                       "--format", "json"])
            assert res.exit_code == 0
            assert json.loads(res.output)["lambda1_bound"] == sharp[spec.name]


class TestBounds:
    def test_quaternionic_values(self, runner):
        res = runner.invoke(main, ["bounds", "--n", "4", "--m", "3",
                                   "--kappa", "2", "--quaternionic"])
        assert res.exit_code == 0
        assert "lambda_1 >= 4" in res.output
        assert "29.47" in res.output

    def test_bad_inputs_exit_code(self, runner):
        assert runner.invoke(main, ["bounds", "--n", "4", "--m", "3"]).exit_code == 5
        assert runner.invoke(main, ["bounds", "--n", "4", "--m", "3",
                                    "--K", "0"]).exit_code == 5
        assert runner.invoke(main, ["bounds", "--n", "4", "--m", "3",
                                    "--K", "1", "--kappa", "1"]).exit_code == 5
        for n in ("-4", "0"):
            res = runner.invoke(main, ["bounds", "--n", n, "--m", "3",
                                       "--kappa", "2"])
            assert res.exit_code == 5
            assert res.output == "error: ranks must be positive\n"
        # bounds that leave the float range, and ranks beyond it
        for args in (["--n", "4", "--m", "3", "--K", "1e308"],
                     ["--n", "4", "--m", "3", "--K", "1e-320"],
                     ["--n", "4", "--m", "3", "--kappa", "1e308"],
                     ["--n", "4", "--m", "3", "--kappa", "1e308",
                      "--quaternionic"],
                     ["--n", "1" + "0" * 400, "--m", "3", "--K", "1"],
                     ["--n", "1" + "0" * 400, "--m", "3", "--kappa", "2",
                      "--quaternionic"]):
            res = runner.invoke(main, ["bounds"] + args)
            assert res.exit_code == 5, args
            assert res.output.startswith("error: ") and \
                res.output.count("\n") == 1, args


class TestCd:
    def test_quaternionic_heisenberg(self, runner):
        res = runner.invoke(main, ["cd", "heisenberg-quat", "--K", "0",
                                   "--trials", "5", "--points", "8"])
        assert res.exit_code == 0
        assert "pass" in res.output


BAD_OPTIONS = {
    "verify-points-0": ["verify", "heisenberg", "--points", "0"],
    "verify-tol-negative": ["verify", "heisenberg", "--tol", "-1"],
    "verify-tol-0": ["verify", "heisenberg", "--tol", "0"],
    "verify-tol-nan": ["verify", "heisenberg", "--tol", "nan"],
    "verify-tol-inf": ["verify", "heisenberg", "--tol", "inf"],
    "verify-seed-negative": ["verify", "heisenberg", "--seed", "-1",
                             "--points", "4"],
    "verify-seed-2**128": ["verify", "heisenberg", "--seed", str(2 ** 128)],
    "verify-checks-empty": ["verify", "heisenberg", "--checks", ","],
    "spectrum-degree-negative": ["spectrum", "complex-hopf-s3", "--degree", "-1"],
    "spectrum-degree-0": ["spectrum", "complex-hopf-s3", "--degree", "0"],
    "cd-trials-0": ["cd", "heisenberg", "--K", "0", "--trials", "0"],
    "cd-points-0": ["cd", "heisenberg", "--K", "0", "--points", "0"],
    "cd-tol-negative": ["cd", "heisenberg", "--K", "0", "--tol", "-1"],
    "cd-K-nan": ["cd", "heisenberg", "--K", "nan"],
    "cd-seed-negative": ["cd", "heisenberg", "--K", "0", "--seed", "-1"],
    "bounds-K-nan": ["bounds", "--n", "4", "--m", "3", "--K", "nan"],
    "bounds-kappa-nan": ["bounds", "--n", "4", "--m", "3", "--kappa", "nan"],
    "bounds-kappa-inf": ["bounds", "--n", "4", "--m", "3", "--kappa", "inf"],
    "report-points-0": ["report", "complex-hopf-s3", "--points", "0"],
    "report-degree-negative": ["report", "complex-hopf-s3", "--degree", "-1"],
    "report-seed-negative": ["report", "complex-hopf-s3", "--seed", "-1"],
}
BAD_MODEL_FILES = {
    "file-not-json": "not json",
    "file-not-object": "[1, 2]",
    "file-missing-k": '{"kind": "complex-hopf"}',
    "file-null-k": '{"kind": "complex-hopf", "k": null}',
    "file-epsilon-negative": '{"kind": "complex-hopf", "k": 1, "epsilon": -1}',
    "file-epsilon-inf":
        '{"kind": "complex-hopf", "k": 1, "epsilon": Infinity}',
    "file-epsilon-1e999": '{"kind": "complex-hopf", "k": 1, "epsilon": 1e999}',
    "file-epsilon-nan": '{"kind": "complex-hopf", "k": 1, "epsilon": NaN}',
}
BAD_INPUTS = ([pytest.param(args, None, id=key)
               for key, args in BAD_OPTIONS.items()]
              + [pytest.param(["verify", "--model-file"], text, id=key)
                 for key, text in BAD_MODEL_FILES.items()])


@pytest.mark.parametrize("args, model_file", BAD_INPUTS)
def test_bad_input_fails_closed(runner, tmp_path, args, model_file):
    if model_file is not None:
        path = tmp_path / "model.json"
        path.write_text(model_file)
        args = args + [str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)    # not an uncaught error
    assert res.stdout == ""
    assert "Traceback" not in res.output
    errors = [line for line in res.stderr.splitlines()
              if line.lower().startswith("error:")]
    assert len(errors) == 1


@pytest.mark.parametrize("command", ["spectrum", "report"])
def test_oversized_degree_fails_closed(runner, monkeypatch, command):
    # the limit is lowered, so the refused degree allocates nothing large;
    # dim P_3 in the 4 variables of S^3 is 20
    monkeypatch.setattr(analysis, "MAX_DEGREE_MONOMIALS", 19)
    res = runner.invoke(main, [command, "complex-hopf-s3", "--degree", "3"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: degree 3 spans 20 monomials in 4 variables, more than the "
        "19 a spectrum is computed for"]


class TestReport:
    def test_combined_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["report", "complex-hopf-s3", "--points",
                                   "8", "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "complex-hopf-s3"
        assert payload["spectrum"]["lambda1"] == pytest.approx(2.0, abs=1e-9)
        assert any(r["check"] == "h-type" for r in payload["checks"])
