import json
import os
import subprocess
import sys

import pytest

from floquet_lattice.cli import main


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "threesite.json"
    path.write_text(json.dumps({
        "n_sites": 3, "omega0": 1.0, "nu0": 0.0,
        "a1": 22.0, "a2": 0.0, "omega": 10.0,
    }))
    return path


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert main(["bessel", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_bessel_value_and_zero(capsys):
    assert main(["bessel", "--order", "0", "--x", "2.2"]) == 0
    out = capsys.readouterr().out
    assert "0.11036226692217384" in out
    assert main(["bessel", "--zero", "1"]) == 0
    assert "2.404825557695" in capsys.readouterr().out


def test_bessel_requires_request(capsys):
    assert main(["bessel"]) == 1
    assert "error" in capsys.readouterr().err


def test_bessel_domain_error(capsys):
    assert main(["bessel", "--order", "11", "--x", "1.0"]) == 1


def test_propagate_writes_trajectory_and_manifest(tmp_path, spec_file):
    out = tmp_path / "out"
    code = main(["propagate", "--config", str(spec_file), "--set", "a2=24",
                 "--periods", "3", "--steps-per-period", "500",
                 "--stride", "50", "--out", str(out)])
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["a2"] == 24.0
    assert manifest["overrides"] == {"a2": "24"}
    assert manifest["outputs"] == ["trajectory.csv"]
    assert manifest["max_norm_deviation"] < 1e-7  # spp=500 here, not 2000


def test_propagate_is_idempotent(tmp_path, spec_file):
    out = tmp_path / "out"
    args = ["propagate", "--config", str(spec_file), "--periods", "2",
            "--steps-per-period", "500", "--stride", "100", "--out", str(out)]
    assert main(args) == 0
    first = (out / "trajectory.csv").read_bytes()
    assert main(args) == 0
    assert (out / "trajectory.csv").read_bytes() == first


def test_propagate_validation_error_names_field(tmp_path, spec_file, capsys):
    code = main(["propagate", "--config", str(spec_file), "--set", "omega=0",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "omega" in capsys.readouterr().err


def test_propagate_bad_override_value(tmp_path, spec_file, capsys):
    code = main(["propagate", "--config", str(spec_file), "--set", "a2=abc",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "a2" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["grid_points=abc", "grid_start=x",
                                      "horizon_periods=1.5"])
def test_reproduce_bad_recipe_override_value(tmp_path, capsys, override):
    code = main(["reproduce", "fig3", "--set", override,
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and override.split("=")[0] in err


def test_propagate_missing_config(tmp_path, capsys):
    assert main(["propagate", "--out", str(tmp_path)]) == 1
    assert "--config" in capsys.readouterr().err


def test_propagate_numerical_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n_sites": 2, "omega0": 1.0, "nu0": 0.0,
        "a1": 0.0, "a2": 600.0, "omega": 10.0,
    }))
    code = main(["propagate", "--config", str(bad), "--periods", "1",
                 "--steps-per-period", "100", "--out", str(tmp_path / "out")])
    assert code == 2


def test_propagate_non_finite_state_exit_code(tmp_path, spec_file):
    code = main(["propagate", "--config", str(spec_file), "--set", "a1=1e308",
                 "--periods", "1", "--steps-per-period", "100",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_floquet_rejects_bad_steps_per_period(tmp_path, spec_file, capsys):
    code = main(["floquet", "--config", str(spec_file),
                 "--steps-per-period", "0", "--out", str(tmp_path / "fl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "steps_per_period" in err


def test_floquet_modes_csv(tmp_path, spec_file):
    out = tmp_path / "fl"
    code = main(["floquet", "--config", str(spec_file), "--set", "a2=20",
                 "--steps-per-period", "1000", "--out", str(out),
                 "--dump-monodromy"])
    assert code == 0
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == "param,branch_id,quasienergy,avg_p1,avg_p2,avg_p3,residual"
    assert len(lines) == 4
    mono = (out / "monodromy.csv").read_text().splitlines()
    assert mono[0] == "re_c1,im_c1,re_c2,im_c2,re_c3,im_c3"
    assert len(mono) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unitarity_residual"] < 1e-8


def test_scan_minp1_cli(tmp_path, spec_file):
    out = tmp_path / "scan"
    code = main(["scan-minp1", "--config", str(spec_file),
                 "--grid", "0:0.5:3", "--periods", "5",
                 "--steps-per-period", "500", "--workers", "2",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "minp1.csv").read_text().splitlines()
    assert lines[0] == "a2_over_omega,min_p1"
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"start": 0.0, "stop": 0.5, "points": 3}


def test_scan_spectrum_cli(tmp_path, spec_file):
    out = tmp_path / "spec"
    code = main(["scan-spectrum", "--config", str(spec_file),
                 "--grid", "2.3:2.5:5",
                 "--steps-per-period", "500", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("a2_over_omega,branch_id,quasienergy")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["classifications"]) == 1


def test_bad_grid_flag(tmp_path, spec_file, capsys):
    assert main(["scan-minp1", "--config", str(spec_file),
                 "--grid", "0-6-241", "--out", str(tmp_path)]) == 1
    assert "grid" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("override, message", [
    ("initial_site=2", "analytic_p1 requires constants captured from the "
                       "(1, 0, 0) state"),
    ("n_sites=4", "averaged model is defined for n_sites=3 only"),
])
def test_reproduce_checks_the_averaged_model_first(tmp_path, capsys,
                                                   override, message):
    # fig2's heatmap needs the averaged model; a recipe outside it fails
    # before the Min(P1) scan runs and before any output is written
    out = tmp_path / "out"
    code = main(["reproduce", "fig2", "--set", override,
                 "--set", "grid_points=3", "--set", "horizon_periods=2",
                 "--workers", "1", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_checks_strides_first(tmp_path, capsys):
    # fig2's heatmap stride 50 does not divide 1010 steps; the recipe fails
    # before the Min(P1) scan runs and before any output is written
    out = tmp_path / "out"
    code = main(["reproduce", "fig2", "--set", "steps_per_period=1010",
                 "--set", "grid_points=3", "--set", "horizon_periods=2",
                 "--workers", "1", "--out", str(out)])
    assert code == 1
    assert "stride 50 must divide 1010" in capsys.readouterr().err
    assert not out.exists()


def test_floquet_out_is_an_existing_file(tmp_path, spec_file, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["floquet", "--config", str(spec_file),
                 "--steps-per-period", "500", "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_reproduce_out_below_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["reproduce", "fig3", "--set", "grid_points=3",
                 "--set", "steps_per_period=100", "--workers", "1",
                 "--out", str(taken / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_scan_failure_keeps_completed_points_and_writes_nothing(tmp_path,
                                                                capsys):
    # a2 = 0 completes; a2 = 200, 400, 600 fail their norm gate at 100 steps
    config = tmp_path / "two.json"
    config.write_text(json.dumps({"n_sites": 2, "omega0": 1, "nu0": 0,
                                  "a1": 0, "a2": 0, "omega": 10}))
    out = tmp_path / "out"
    code = main(["scan-minp1", "--config", str(config), "--grid", "0:60:4",
                 "--periods", "2", "--steps-per-period", "100",
                 "--workers", "4", "--out", str(out)])
    assert code == 2
    assert "(1 points completed)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--set", "a2"], "--set expects KEY=VALUE"),
    (["--set", "bogus=1"], "unknown spec field 'bogus'"),
    (["--config", "missing.json"], "cannot read config"),
])
def test_propagate_rejects_bad_flags(tmp_path, spec_file, capsys, flags,
                                     message):
    args = ["propagate", "--config", str(spec_file), "--periods", "1",
            "--steps-per-period", "100", "--out", str(tmp_path / "x")]
    code = main(args + [str(tmp_path / f) if f.endswith(".json") else f
                        for f in flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_bad_grid_number(tmp_path, spec_file, capsys):
    assert main(["scan-minp1", "--config", str(spec_file),
                 "--grid", "0:six:3", "--out", str(tmp_path / "x")]) == 1
    assert "bad --grid value" in capsys.readouterr().err


def test_ambiguous_matching_reaches_the_manifest(tmp_path, spec_file,
                                                 monkeypatch):
    from floquet_lattice import floquet
    real, calls = floquet._best_permutation, []

    def flag_second_step(*args):
        perm, ambiguous = real(*args)
        calls.append(args)
        return perm, ambiguous or len(calls) == 2

    monkeypatch.setattr(floquet, "_best_permutation", flag_second_step)
    out = tmp_path / "spec"
    assert main(["scan-spectrum", "--config", str(spec_file),
                 "--grid", "0:0.5:4", "--steps-per-period", "500",
                 "--workers", "1", "--out", str(out)]) == 0
    (warning,) = json.loads((out / "manifest.json").read_text())["warnings"]
    assert warning.startswith("ambiguous mode matching at a2=")
    assert "3.333333" in warning  # the third grid point, a2/omega = 1/3


@pytest.mark.parametrize("command", ["floquet", "scan-spectrum"])
def test_periods_only_where_a_horizon_is_used(tmp_path, spec_file, capsys,
                                               command):
    assert main([command, "--config", str(spec_file), "--periods", "2",
                 "--out", str(tmp_path / "x")]) == 1
    assert "--periods" in capsys.readouterr().err


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "fig2" in err  # the error names the valid ids


def test_workers_default_to_usable_cpus(tmp_path, spec_file, monkeypatch):
    # a process pinned to one CPU runs one worker, whatever cpu_count says
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    out = tmp_path / "pinned"
    assert main(["scan-minp1", "--config", str(spec_file),
                 "--grid", "0:0.2:2", "--periods", "2",
                 "--steps-per-period", "500", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == 1


@pytest.mark.parametrize("value", ["0", "-2"])
def test_workers_flag_below_one(tmp_path, spec_file, capsys, value):
    for argv in (["scan-minp1", "--config", str(spec_file),
                  "--grid", "0:0.2:2"],
                 ["scan-spectrum", "--config", str(spec_file)],
                 ["reproduce", "fig2"]):
        out = tmp_path / "out"
        assert main(argv + ["--workers", value, "--out", str(out)]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_import_leaves_out_scipy_optimize():
    # importing scipy.optimize costs about 20 MB of peak memory
    import floquet_lattice

    src = os.path.dirname(os.path.dirname(floquet_lattice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, floquet_lattice, floquet_lattice.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
