"""End-to-end command-line interface tests (in-process dispatch)."""

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cglspiral import cli, specfun, wavenumber


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        rc, out, err = run(capsys)
        assert rc == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        rc, out, err = run(capsys, "kappa", "--n", "1", "--q", "0.5",
                           "--frob")
        assert rc == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        rc, out, err = run(capsys, "frobnicate")
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, out, err = run(capsys, "--help")
        assert rc == 0
        assert "selfcheck" in out

    def test_domain_error_exit_code(self, capsys, tmp_path):
        rc, out, err = run(capsys, "kappa", "--n", "1", "--q", "0",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "mirror" in err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cglspiral", "kappa", "--n", "1",
             "--q", "0.5", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kappa"] > 0


class TestBesselEval:
    def test_imag_order_json(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "bessel-eval", "--nu", "0.1", "--x", "1.0",
                         "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        K, K1 = specfun.k_imag(0.1, 1.0)
        assert doc == {"kind": "Kinu", "nu": 0.1, "x": 1.0, "value": K,
                       "derivative": K1, "err_estimate": 1e-12}

    def test_method_option_is_gone(self, capsys, tmp_path):
        # the quadrature oracle is not a user route
        rc, out, err = run(capsys, "bessel-eval", "--nu", "0.1", "--x", "1.0",
                           "--method", "quad", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "usage" in err
        assert "unrecognized arguments: --method quad" in err
        assert out == ""

    def test_tiny_argument_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "bessel-eval", "--nu", "0.1", "--x",
                           "1e-200", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "float64" in err

    def test_integer_kinds_are_gone(self, capsys, tmp_path):
        rc, out, err = run(capsys, "bessel-eval", "--kind", "In", "--n", "2",
                           "--x", "800", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "usage" in err
        assert out == ""

    def test_missing_order(self, capsys, tmp_path):
        rc, out, err = run(capsys, "bessel-eval", "--x", "1.0",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "--nu" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("argv,flag", [
    (["bessel-eval", "--nu", "0.3", "--x", "{}"], "--x"),
    (["kappa", "--n", "1", "--q", "{}"], "--q"),
    (["physical", "--alpha", "{}", "--q", "0.2", "--k", "0.1"], "--alpha"),
    (["solve", "--n", "1", "--q", "0.5", "--tol", "{}"], "--tol"),
    (["solve", "--n", "1", "--q", "0.5", "--k-init", "{}"], "--k-init"),
    (["sweep", "--n", "1", "--q-list", "0.5,{}"], "--q-list"),
])
def test_nonfinite_number_is_usage_error(capsys, tmp_path, argv, flag, bad):
    # refused while parsing: no solve runs and no NaN reaches the JSON
    rc, out, err = run(capsys, *[a.format(bad) for a in argv],
                       "--out-dir", str(tmp_path))
    assert rc == 1
    assert "usage" in err
    assert f"argument {flag}: '{bad}' is not a finite number" in err
    assert out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["kappa", "--n", "1", "--q", "0.5", "--tol", "1e-3"],
     "unrecognized arguments: --tol 1e-3"),
    (["bessel-eval", "--nu", "0.3", "--x", "1.0", "--json"],
     "unrecognized arguments: --json"),
    (["physical", "--alpha", "0.3", "--q", "0.2", "--k", "0.1",
      "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
    (["solve", "--n", "1", "--q", "0.5", "--json"],
     "unrecognized arguments: --json"),
    (["kappa", "--n", "1", "--q", "0.5", "--config", "{cfg}"],
     "unrecognized arguments: --config"),
    # before the subcommand a flag is named, not its value read as the
    # command name
    pytest.param(["--config", "{cfg}", "kappa", "--n", "1", "--q", "0.5"],
                 "option --config comes before the subcommand; options "
                 "follow the subcommand name", id="config-before-subcommand"),
    pytest.param(["--tol", "1e-8", "solve", "--n", "1", "--q", "0.5"],
                 "option --tol comes before the subcommand; options "
                 "follow the subcommand name", id="tol-before-subcommand"),
])
def test_option_a_command_does_not_read_is_usage_error(capsys, tmp_path,
                                                        argv, message):
    # each subcommand accepts only the options it reads, and only after
    # its name; nothing runs and no manifest is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-8}))
    out_dir = tmp_path / "out"
    rc, out, err = run(capsys, *[a.format(cfg=cfg) for a in argv],
                       "--out-dir", str(out_dir))
    assert rc == 1
    assert "usage" in err
    assert message in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["outer-eval", "--n", "1", "--q", "0.5", "--k", "0.09",
     "--r-grid", "40:400:8"],
    ["inner-solve", "--n", "1"],
    ["sweep", "--n", "1", "--q-list", "0.6"],
])
def test_manifest_outputs_relative_to_out_dir(capsys, tmp_path, argv):
    # an --out with a directory part is listed with it, so the manifest
    # locates every file it names
    (tmp_path / "sub").mkdir()
    rc, _, _ = run(capsys, *argv, "--out", "sub/table.csv",
                   "--out-dir", str(tmp_path), "--quiet")
    assert rc == 0
    name = f"{argv[0].replace('-', '_')}_manifest.json"
    manifest = json.loads((tmp_path / name).read_text())
    assert manifest["outputs"] == ["sub/table.csv"]
    assert (tmp_path / "sub" / "table.csv").is_file()


class TestOuterEval:
    def test_csv_columns_and_residual(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                         "--k", "0.09", "--r-grid", "40:400:40",
                         "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        path = tmp_path / "outer_eval.csv"
        header = path.read_text().splitlines()[0]
        assert header == "r,R,V0,F0,v_out,riccati_residual"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (40, 6)
        assert np.max(np.abs(data[:, 5])) <= 1e-8
        assert np.all(data[:, 2] < 0)

    def test_unwritable_output_is_clean_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                         "--k", "0.3", "--r-grid", "20:40:5",
                         "--out", "nodir/x.csv", "--out-dir", str(tmp_path))
        assert rc == 1
        target = tmp_path / "nodir" / "x.csv"
        assert err == (f"cglspiral: cannot write {target}: "
                       "No such file or directory\n")
        assert not (tmp_path / "outer_eval_manifest.json").exists()

    def test_below_floor_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.1",
                           "--k", "0.01", "--r-grid", "0.1:1:5",
                           "--out-dir", str(tmp_path))
        assert rc == 1

    def test_bad_grid_spec(self, capsys, tmp_path):
        rc, out, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                           "--k", "0.09", "--r-grid", "oops",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "grid spec" in err

    def test_unparsable_grid_count(self, capsys, tmp_path):
        rc, out, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                           "--k", "0.09", "--r-grid", "1:2:x",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "bad grid spec '1:2:x'" in err
        assert not (tmp_path / "outer_eval.csv").exists()

    @pytest.mark.parametrize("spec", ["2:1:5", "1:2:1"])
    def test_degenerate_grid_spec(self, capsys, tmp_path, spec):
        rc, out, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                           "--k", "0.09", "--r-grid", spec,
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "0 < lo < hi and count >= 2" in err

    def test_linear_grid(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "outer-eval", "--n", "1", "--q", "-0.5",
                       "--k", "0.09", "--r-grid", "40:400:7:lin",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        data = np.loadtxt(tmp_path / "outer_eval.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(data[:, 0], np.linspace(40.0, 400.0, 7))
        # negative twist mirrors the phase gradient, not the amplitude
        assert np.all(data[:, 4] > 0.0) and np.all(data[:, 3] > 0.0)

    def test_core_region_is_domain_error(self, capsys, tmp_path):
        # R = k|q| r = 0.25 passes the oscillation floor, but the far-field
        # amplitude radicand is negative there
        rc, _, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                         "--k", "0.5", "--r-grid", "1:2:3",
                         "--out-dir", str(tmp_path))
        assert rc == 1
        assert "radicand" in err
        assert not (tmp_path / "outer_eval.csv").exists()

    def test_wavenumber_past_one_is_domain_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "outer-eval", "--n", "1", "--q", "0.5",
                         "--k", "1.0", "--r-grid", "40:400:3",
                         "--out-dir", str(tmp_path))
        assert rc == 1
        assert "wavenumber" in err


class TestInnerSolve:
    def test_json_and_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "inner-solve", "--n", "1",
                         "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["c_f"] == pytest.approx(0.583189495860, abs=2e-8)
        assert doc["C_n"] == pytest.approx(-0.119118106318, abs=1e-6)
        assert doc["convergence_gap"] <= 1e-6
        data = np.loadtxt(tmp_path / "inner_profile.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[1] == 4
        header = (tmp_path / "inner_profile.csv").read_text(). \
            splitlines()[0]
        assert header == "r,f0,df0,v0_integrand"
        manifest = json.loads(
            (tmp_path / "inner_solve_manifest.json").read_text())
        assert manifest["command"] == "inner-solve"
        assert manifest["config"]["n"] == 1

    def test_radius_inside_series_cut_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "inner-solve", "--n", "1", "--r-max",
                           "0.0005", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "R_START" in err
        assert out == ""

    def test_radius_below_tail_floor_is_domain_error(self, capsys,
                                                      tmp_path):
        rc, out, err = run(capsys, "inner-solve", "--n", "1", "--r-max",
                           "1.0", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "needs r_max > 1.15746" in err
        assert out == ""


class TestKappa:
    def test_auto_cn(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "kappa", "--n", "1", "--q", "0.5",
                         "--cn", "auto", "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        expect = wavenumber.kappa_asym(1, 0.5)
        assert doc["log_kappa"] == expect.log_value
        assert doc["kappa"] == expect.value
        assert 0 < doc["mu_bar"] < 1
        assert doc["rho"] is not None

    def test_explicit_cn(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "kappa", "--n", "1", "--q", "0.5",
                         "--cn", "0.25", "--out-dir", str(tmp_path))
        doc = json.loads(out)
        expect = wavenumber.kappa_asym(1, 0.5, cn=0.25)
        assert doc["log_kappa"] == expect.log_value

    def test_bad_cn(self, capsys, tmp_path):
        rc, out, err = run(capsys, "kappa", "--n", "1", "--q", "0.5",
                           "--cn", "frog", "--out-dir", str(tmp_path))
        assert rc == 1

    def test_degenerate_matching_window_reports_nulls(self, capsys,
                                                      tmp_path):
        # at q >= 1 the matching window degenerates: the formula value is
        # still reported, the window's geometry as nulls
        rc, out, _ = run(capsys, "kappa", "--n", "1", "--q", "1.0",
                         "--out-dir", str(tmp_path))
        assert rc == 0
        doc = strict_json(out)
        assert doc["kappa"] == wavenumber.kappa_asym(1, 1.0).value
        for key in ("rho", "log_r0", "alpha", "alpha_design"):
            assert key in doc and doc[key] is None, key


class TestSolveAndSweep:
    def test_solve_outputs(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                         "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        doc = json.loads(out)
        assert doc["k_numeric"] == pytest.approx(0.0936689780, abs=1e-6)
        assert doc["newton_iterations"] <= 50
        assert doc["status"] == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report == doc
        data = np.loadtxt(tmp_path / "solve_profile.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[1] == 6
        f = data[:, 1]
        assert np.all(np.diff(f) > 0)

    def test_solve_at_tight_tolerance(self, capsys, tmp_path):
        # once stopped on the node budget with nodes piled at the series cut
        rc, out, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                         "--tol", "1e-11", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == 0 and doc["tol"] == 1e-11
        assert doc["k_numeric"] == pytest.approx(0.0936689780, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ("inner-solve", "--n", "1", "--tol", "0"),
        ("inner-solve", "--n", "1", "--tol=-1e-10"),
        ("solve", "--n", "1", "--q", "0.5", "--tol", "1e-15"),
        ("sweep", "--n", "1", "--q-list", "0.5,0.4", "--tol", "0")])
    def test_tolerance_below_floor_is_domain_error(self, capsys, tmp_path,
                                                   argv):
        # solve_bvp would warn, solve at its floor and run to the node
        # budget before exiting 2
        rc, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert rc == 1
        assert "core.TOL_FLOOR = 2.22e-14" in err

    def test_out_with_directory_part(self, capsys, tmp_path):
        # the profile CSV once landed in --out-dir itself, away from a
        # report written into a subdirectory
        (tmp_path / "sub").mkdir()
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out", "sub/r_report.json",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
        assert manifest["outputs"] == ["sub/r_report.json", "sub/r_profile.csv"]
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["solve_manifest.json", *sorted(manifest["outputs"])]

    def test_solve_determinism(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.6",
                           "--out-dir", str(d), "--quiet")
            assert rc == 0
        for name in ("solve_report.json", "solve_profile.csv",
                     "solve_manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_solve_from_k_init(self, capsys, tmp_path):
        # the seed k moves the matching radius (35.6 against 37.1), so the
        # seeded k agrees with the auto solve to the matching-radius error
        rc, out, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                         "--k-init", "0.09", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0
        doc = json.loads(out)
        assert doc["k_numeric"] == pytest.approx(0.0936689780, rel=1e-4)
        manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
        assert manifest["config"]["k_init"] == "0.09"

    def test_untwisted_solve_keeps_r_max(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "solve", "--n", "1", "--q", "0",
                         "--r-max", "5000", "--out-dir", str(tmp_path))
        assert rc == 0
        assert json.loads(out)["r_max"] == 5000.0

    def test_untwisted_solve_refuses_k_init(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--n", "1", "--q", "0",
                           "--k-init", "0.5", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "untwisted solve takes no initial" in err
        assert out == ""

    def test_small_twist_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--n", "1", "--q", "0.001",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "log k = -1563.9" in err

    @pytest.mark.parametrize("q", ["0.5", "-0.5"])
    def test_failed_collocation_exits_two(self, capsys, tmp_path, q):
        # a Newton iterate's k leaves (0, 1) at this radius; the error names
        # the twist with its sign and the runaway log k
        rc, out, err = run(capsys, "solve", "--n", "2", f"--q={q}",
                           "--r-max", "200", "--out-dir", str(tmp_path))
        assert rc == 2
        assert err.startswith("cglspiral: did not converge: collocation "
                              f"failed at n=2, q={q} (r_max=200): ")
        assert "left k in (0, 1): log k = " in err
        assert out == ""
        assert not (tmp_path / "solve_report.json").exists()

    def test_sweep_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "sweep", "--n", "1", "--q-list",
                         "1.0,0.8,0.6", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0
        path = tmp_path / "sweep_report.csv"
        header = path.read_text().splitlines()[0]
        assert header == ("q,k_numeric,log_k_numeric,k_asym,ratio,"
                          "abs_ratio_minus_1_times_logq,iters,residual")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3, 8)
        assert np.all(np.diff(data[:, 1]) < 0)
        assert np.allclose(data[:, 2], np.log(data[:, 1]), atol=1e-12)

    def test_negative_radius_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--n", "1", "--q", "0.5",
                           "--r-max", "-3", "--out-dir", str(tmp_path),
                           "--quiet")
        assert rc == 1
        assert "R_START" in err

    def test_sweep_partial_failure_exit_two(self, capsys, tmp_path):
        rc, out, err = run(capsys, "sweep", "--n", "1", "--q-list",
                           "0.5,1e-08", "--out-dir", str(tmp_path),
                           "--quiet")
        assert rc == 2
        assert "did not converge" in err
        data = np.loadtxt(tmp_path / "sweep_report.csv", delimiter=",",
                          skiprows=1)
        assert data.shape == (2, 8)
        assert math.isfinite(data[0, 1])
        assert math.isnan(data[1, 1])

    def test_empty_q_list(self, capsys, tmp_path):
        rc, _, err = run(capsys, "sweep", "--n", "1", "--q-list", ",",
                         "--out-dir", str(tmp_path))
        assert rc == 1
        assert "at least one twist" in err

    def test_ascending_list_rejected(self, capsys, tmp_path):
        rc, out, err = run(capsys, "sweep", "--n", "1", "--q-list",
                           "0.5,0.8", "--out-dir", str(tmp_path))
        assert rc == 1


class TestPhysicalCommand:
    def test_direct(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "physical", "--alpha", "0.3", "--q", "0.2",
                         "--k", "0.1", "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        for key in ("alpha", "beta", "Omega", "k_star", "a", "delta"):
            assert key in doc
        assert abs(doc["dispersion_residual"]) <= 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_rescale_at_extreme_twist_maps(self, capsys, tmp_path):
        # 1 - Omega*alpha rounds to 0 here as a difference; the map once
        # died dividing by it, then refused the input
        rc, out, err = run(capsys, "physical", "--alpha", "42.93462744784837",
                           "--q=-3.93e63", "--k", "0.9999999999999999",
                           "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["a"] == pytest.approx(6.120969807946722e+24, rel=1e-15)
        assert doc["delta"] == pytest.approx(1.4901161193847656e-08,
                                             rel=1e-15)

    def test_from_solve(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        rc, out, _ = run(capsys, "physical", "--from-solve",
                         str(tmp_path / "solve_report.json"),
                         "--alpha", "0.3", "--out-dir", str(tmp_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["q"] == 0.5
        assert doc["k"] == pytest.approx(0.0936689780, abs=1e-6)

    def test_missing_inputs(self, capsys, tmp_path):
        rc, out, err = run(capsys, "physical", "--alpha", "0.3",
                           "--out-dir", str(tmp_path))
        assert rc == 1
        assert "--from-solve" in err

    @pytest.mark.parametrize("flags", [("--q", "0.3"), ("--k", "0.1"),
                                       ("--q", "0.5", "--k", "0.09")])
    def test_from_solve_refuses_explicit_twist(self, capsys, tmp_path,
                                               flags):
        # the report's q and k would win without a word
        report = tmp_path / "solve_report.json"
        report.write_text(json.dumps({"q": 0.5, "k_numeric": 0.09}))
        rc, out, err = run(capsys, "physical", "--from-solve", str(report),
                           *flags, "--out-dir", str(tmp_path))
        assert rc == 1
        assert "--from-solve" in err and "--q and --k" in err
        assert out == ""
        assert not (tmp_path / "physical_manifest.json").exists()

    def test_bad_report_path(self, capsys, tmp_path):
        rc, out, err = run(capsys, "physical", "--from-solve",
                           str(tmp_path / "nope.json"),
                           "--out-dir", str(tmp_path))
        assert rc == 1


class TestFieldCommand:
    def test_export_and_reextension(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        # extent beyond the reported domain forces the warm re-solve path
        assert report["r_max"] < 40.0
        rc, out, _ = run(capsys, "field", "--solve-report",
                         str(tmp_path / "solve_report.json"),
                         "--nx", "21", "--ny", "21", "--extent", "40",
                         "--t", "0", "--chirality", "1",
                         "--out", "f.csv", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0
        data = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1)
        assert data.shape == (21 * 21, 5)
        # amplitude column bounded by the far-field plateau
        assert np.max(data[:, 4]) <= 1.0
        manifest = json.loads((tmp_path / "field_manifest.json").read_text())
        assert manifest["config"]["extent"] == 40.0

    def test_tol_flag_is_honoured(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        argv = ["field", "--solve-report", str(tmp_path / "solve_report.json"),
                "--nx", "9", "--ny", "9", "--extent", "20",
                "--out-dir", str(tmp_path), "--quiet"]
        manifest = tmp_path / "field_manifest.json"
        rc, _, _ = run(capsys, *argv)
        assert rc == 0
        assert json.loads(manifest.read_text())["config"]["tol"] == 1e-10
        rc, _, _ = run(capsys, *argv, "--tol", "1e-8")
        assert rc == 0
        assert json.loads(manifest.read_text())["config"]["tol"] == 1e-8

    def test_manifest_holds_parsed_and_resolved_options(self, capsys,
                                                         tmp_path):
        report = tmp_path / "solve_report.json"
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        k = json.loads(report.read_text())["k_numeric"]
        rc, _, _ = run(capsys, "field", "--solve-report", str(report),
                       "--nx", "9", "--ny", "7", "--extent", "20",
                       "--t", "0.25", "--chirality", "-1", "--out", "f.json",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        manifest = json.loads((tmp_path / "field_manifest.json").read_text())
        assert manifest["command"] == "field"
        assert manifest["outputs"] == ["f.json"]
        config = manifest["config"]
        # omega comes from the re-solved k, which matches the report's
        assert config.pop("omega") == pytest.approx(0.5 * (1.0 - k * k),
                                                    rel=1e-9)
        assert config == {"solve_report": str(report), "nx": 9, "ny": 7,
                          "extent": 20.0, "t": 0.25, "chirality": -1,
                          "out": "f.json", "tol": 1e-10}

    def test_omega_flag_sets_the_frequency(self, capsys, tmp_path):
        # the frame's phase carries omega t, so omega = 0.25 at t = 2 and
        # omega = 0.5 at t = 1 write the same bytes, and the default
        # omega = q (1 - k^2) at t = 1 does not
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        frames = {}
        for name, flags in (("a", ["--omega", "0.25", "--t", "2"]),
                            ("b", ["--omega", "0.5", "--t", "1"]),
                            ("c", ["--t", "1"])):
            rc, _, err = run(capsys, "field", "--solve-report",
                             str(tmp_path / "solve_report.json"),
                             "--nx", "7", "--ny", "7", "--extent", "10",
                             *flags, "--out", f"{name}.csv",
                             "--out-dir", str(tmp_path), "--quiet")
            assert rc == 0, err
            frames[name] = (tmp_path / f"{name}.csv").read_bytes()
            manifest = json.loads(
                (tmp_path / "field_manifest.json").read_text())
            if name == "a":
                assert manifest["config"]["omega"] == 0.25
        assert frames["a"] == frames["b"] != frames["c"]

    def test_json_output_format(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        rc, out, _ = run(capsys, "field", "--solve-report",
                         str(tmp_path / "solve_report.json"),
                         "--nx", "9", "--ny", "9", "--extent", "20",
                         "--out", "f.json", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0
        doc = json.loads((tmp_path / "f.json").read_text())
        assert doc["nx"] == 9 and len(doc["re"]) == 81

    @pytest.mark.parametrize("name", ["f.csv", "f.json"])
    def test_unwritable_output_is_clean_error(self, capsys, tmp_path, name):
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0.5",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        rc, _, err = run(capsys, "field", "--solve-report",
                         str(tmp_path / "solve_report.json"),
                         "--nx", "5", "--ny", "5", "--extent", "10",
                         "--out", f"nodir/{name}", "--out-dir", str(tmp_path))
        assert rc == 1
        target = tmp_path / "nodir" / name
        assert err == (f"cglspiral: cannot write {target}: "
                       "No such file or directory\n")

    def test_nonpositive_extent(self, capsys, tmp_path):
        report = tmp_path / "solve_report.json"
        report.write_text(json.dumps({"n": 1, "q": 0.5, "k_numeric": 0.09,
                                      "c_f": 0.58, "r_max": 20.0,
                                      "tol": 1e-10}))
        rc, _, err = run(capsys, "field", "--solve-report", str(report),
                         "--extent", "0", "--out-dir", str(tmp_path))
        assert rc == 1
        assert "--extent must be positive" in err


    def test_untwisted_report_past_its_domain(self, capsys, tmp_path):
        # the rebuilt q = 0 profile once kept the core's r_max = 400
        rc, _, _ = run(capsys, "solve", "--n", "1", "--q", "0",
                       "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0
        rc, _, err = run(capsys, "field", "--solve-report",
                         str(tmp_path / "solve_report.json"),
                         "--nx", "5", "--ny", "5", "--extent", "1000",
                         "--out", "f.json", "--out-dir", str(tmp_path),
                         "--quiet")
        assert rc == 0, err
        assert json.loads((tmp_path / "f.json").read_text())["extent"] == 1000.0

    def test_report_without_c_f(self, capsys, tmp_path):
        # a twisted re-solve is seeded by the report's k alone
        report = tmp_path / "solve_report.json"
        report.write_text(json.dumps({"n": 1, "q": 0.5, "k_numeric": 0.09,
                                      "r_max": 20.0, "tol": 1e-10}))
        rc, _, err = run(capsys, "field", "--solve-report", str(report),
                         "--nx", "5", "--ny", "5", "--extent", "10",
                         "--out-dir", str(tmp_path), "--quiet")
        assert rc == 0, err

    @pytest.mark.parametrize("n", [1.7, "1", True])
    def test_non_integer_arm_count_refused(self, capsys, tmp_path, n):
        # "n": 1.7 once solved n = 1 and exited 0
        report = tmp_path / "solve_report.json"
        report.write_text(json.dumps({"n": n, "q": 0.5, "k_numeric": 0.09,
                                      "c_f": 0.58, "r_max": 20.0,
                                      "tol": 1e-10}))
        rc, out, err = run(capsys, "field", "--solve-report", str(report),
                           "--extent", "10", "--out-dir", str(tmp_path))
        assert rc == 1
        assert f"cannot read solve report {str(report)!r}" in err
        assert f"'n' must be an integer, got {n!r}" in err
        assert out == ""


class TestReadmeExamples:
    def test_command_line_block_runs(self, capsys, tmp_path, monkeypatch):
        # every command of the README's "Command line" block, in order,
        # from a fresh working directory: each must exit 0
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("## Command line", 1)[1]
        block = text.split("```\n", 2)[1]
        monkeypatch.chdir(tmp_path)
        lines = [ln for ln in block.splitlines() if ln.strip()]
        assert lines
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "cglspiral"
            rc, out, err = run(capsys, *argv[1:])
            assert rc == 0, (line, err)
            # JSON on stdout is strict; notes and tables are not JSON
            if out.lstrip().startswith(("{", "[")):
                strict_json(out)
        written = sorted(tmp_path.rglob("*.json"))
        assert written
        for path in written:
            strict_json(path.read_text())

    def test_untwisted_report_is_strict_json(self, capsys, tmp_path):
        # k = 0 has no asymptotic ratio: it is written as null, not NaN
        rc, out, _ = run(capsys, "solve", "--n", "1", "--q", "0",
                         "--out-dir", str(tmp_path))
        assert rc == 0
        report = strict_json((tmp_path / "solve_report.json").read_text())
        assert strict_json(out) == report
        assert report["ratio"] is None
        assert report["abs_ratio_minus_1_times_logq"] is None
        assert report["k_numeric"] == 0.0


class TestSelfcheck:
    def test_table_and_exit(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "selfcheck", "--out-dir", str(tmp_path))
        assert rc == 0
        assert "status" in out
        assert "FAIL" not in out
        assert out.count("OK") >= 10

    def test_json_mode(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "selfcheck", "--json",
                         "--out-dir", str(tmp_path))
        assert rc == 0
        rows = json.loads(out)
        assert all(row["ok"] for row in rows)
        assert len(rows) >= 10
