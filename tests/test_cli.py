import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import movingbed
from movingbed import cli
from movingbed.cli import main
from movingbed.params import (ModelParams, case_study, params_to_dict,
                              save_params)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_analyze_case_study(tmp_path):
    out = tmp_path / "run"
    assert main(["analyze", "--out", str(out)]) == 0
    summary = _read_json(out / "analyze_summary.json")
    assert summary["lambda0"] == pytest.approx(-0.11037712315, abs=1e-8)
    assert summary["time_constant_min"] == pytest.approx(13.5898, abs=1e-3)
    sens = summary["sensitivities"]
    assert len(sens["dv"]) == 4
    assert sens["dP"] == pytest.approx(-0.205294932, abs=1e-6)
    assert max(sens["fd_rel_err"]) <= 1e-4
    for name in ("direct_profile.csv", "adjoint_profile.csv",
                 "manifest.json"):
        assert (out / name).is_file()
    header, rows = _read_csv(out / "direct_profile.csv")
    assert header == ["x", "c_re", "c_im", "q_re", "q_im", "side"]
    assert len(rows) == 4 * 101
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "analyze"
    assert manifest["deterministic"] is True


def test_analyze_limit_preset(tmp_path):
    out = tmp_path / "run"
    assert main(["analyze", "--preset", "limit", "--out", str(out)]) == 0
    summary = _read_json(out / "analyze_summary.json")
    assert summary["lambda0"] == 0.0
    assert "note" not in summary
    # the report of the one path; no velocity step stays valid for FD
    sens = summary["sensitivities"]
    g = 1.0 / (4.0 * (1.0 + 1.03 ** 2))
    assert sens["dv"] == pytest.approx([-g, g, -g, g], rel=1e-10)
    assert abs(sens["dR"]) <= 1e-12 * g and abs(sens["dP"]) <= 1e-12 * g
    assert sens["fd_rel_err"] is None


def test_spectrum(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--range=-14:-0.01", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "real_roots.csv")
    roots = sorted(float(r[0]) for r in rows)
    assert len(roots) == 3
    assert roots[-1] == pytest.approx(-0.11037712, abs=1e-6)
    assert roots[0] == pytest.approx(-12.701155, abs=1e-4)
    assert all(float(r[1]) <= 1e-8 for r in rows)          # residuals
    assert all(float(r[2]) <= float(r[0]) <= float(r[3]) for r in rows)
    _, crows = _read_csv(out / "collocation.csv")
    assert {r[2] for r in crows} == {"30", "45"}


def test_limit(tmp_path):
    out = tmp_path / "run"
    assert main(["limit", "--preset", "limit", "--out", str(out)]) == 0
    summary = _read_json(out / "limit_summary.json")
    assert summary["lambda0_plus"] == [0.0, 0.0]
    assert summary["lambda0_minus"][0] == pytest.approx(
        -18.0 * (1 + 1.03 ** 2), rel=1e-12)
    assert summary["k_star"] == pytest.approx(14.340311264, abs=1e-6)
    assert summary["max_residual"] <= 1e-6
    _, rows = _read_csv(out / "limit_spectrum.csv")
    ks = sorted(int(r[0]) for r in rows)
    assert ks[0] == -80 and ks[-1] == 80


def test_sensitivity(tmp_path):
    out = tmp_path / "run"
    assert main(["sensitivity", "--out", str(out)]) == 0
    sens = _read_json(out / "sensitivity.json")
    assert sens["dv"][3] == pytest.approx(+0.255118935, abs=1e-6)
    assert sens["dR"] == pytest.approx(+0.000754081, abs=1e-8)
    assert max(sens["fd_rel_err"]) <= 1e-4


def test_steady_with_feed(tmp_path):
    out = tmp_path / "run"
    assert main(["steady", "--f0", "1.0", "--out", str(out)]) == 0
    summary = _read_json(out / "steady_summary.json")
    assert summary["f0"] == 1.0
    assert summary["c_min"] >= -1e-12
    assert summary["q_min"] >= -1e-12
    assert summary["c_max"] > 0
    assert summary["residual"] <= 1e-10


def test_simulate_small(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--Nx", "32", "--T", "2.0", "--record-every", "5",
            "--out", str(out)]
    assert main(argv) == 0
    header, rows = _read_csv(out / "diagnostics.csv")
    assert header == ["t", "energy", "mass", "sup_norm", "profile_rms"]
    assert len(rows) >= 3
    assert float(rows[0][0]) == 0.0
    assert rows[0][4] != ""                 # eigen-profile distance present
    _, snap = _read_csv(out / "snapshot_final.csv")
    assert len(snap) == 4 * 32
    assert snap[0][:2] == ["1", "1"]
    summary = _read_json(out / "simulate_summary.json")
    assert summary["Nx"] == 32 and summary["T"] == 2.0
    # steps counts time steps, rows counts diagnostics rows (t = 0 and
    # every fifth step, the last step included)
    steps = math.ceil(2.0 / summary["dt"] - 1e-12)
    assert summary["steps"] == steps
    assert summary["rows"] == len(rows) == 2 + (steps - 1) // 5

    # byte-identical rerun
    out2 = tmp_path / "run2"
    assert main(argv[:-1] + [str(out2)]) == 0
    for name in ("diagnostics.csv", "snapshot_final.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_with_feed_has_no_profile_column(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--Nx", "16", "--T", "0.5", "--f0", "1.0",
                 "--record-every", "4", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "diagnostics.csv")
    assert all(r[4] == "" for r in rows)


@pytest.mark.parametrize("preset", ["case-study", "limit"])
def test_simulate_from_zero_data_exits_0(tmp_path, preset):
    # the state has no component along the eigen-profile: the case study
    # exited 2 on it
    out = tmp_path / "run"
    assert main(["simulate", "--preset", preset, "--initial", "zero",
                 "--Nx", "16", "--T", "0.5", "--record-every", "4",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "diagnostics.csv")
    assert all(r[4] == "" for r in rows)


def test_simulate_limit_preset_measures_the_zero_mode(tmp_path):
    # constant data is the limit's zero mode, which the profile samples
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "limit", "--Nx", "64", "--T", "5",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "diagnostics.csv")
    assert max(float(r[4]) for r in rows) <= 1e-12


def test_simulate_eigenfunction_solves_the_mode_once(tmp_path, monkeypatch):
    # the sampled eigen-profile is both the initial state and the
    # reference of the profile distance
    from movingbed import sim
    calls = []
    real = sim.dominant_eigenvalue

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(sim, "dominant_eigenvalue", counted)
    assert main(["simulate", "--Nx", "16", "--T", "0.1", "--initial",
                 "eigenfunction", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_limit_negative_grid_is_a_validation_error(tmp_path, capsys):
    assert main(["limit", "--preset", "limit", "--grid", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "k_max" in capsys.readouterr().err


def test_delta_scan(tmp_path):
    out = tmp_path / "run"
    assert main(["delta-scan", "--range=-60:60", "--grid", "7",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "delta_scan.csv")
    assert len(rows) == 7
    for r in rows:
        d = dict(zip(header, r))
        assert abs(float(d["atan_delta"])) <= 1.0
        assert float(d["log_abs_delta"]) < 1e6      # finite even at +-60
        assert float(d["sign"]) in (-1.0, 0.0, 1.0)

    single = tmp_path / "one"
    assert main(["delta-scan", "--range=-5:-1", "--grid", "1",
                 "--out", str(single)]) == 0
    _, rows = _read_csv(single / "delta_scan.csv")
    assert len(rows) == 1 and float(rows[0][0]) == -5.0


def test_delta_scan_writes_inf_only_beyond_the_double_range(tmp_path):
    # log|Delta| runs from 700.5 to 716.6 here; every row read inf when
    # the cut was log|Delta| > 700, not exp's overflow at 709.78
    out = tmp_path / "run"
    assert main(["delta-scan", "--range=158:162", "--grid", "9",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "delta_scan.csv")
    finite = 0
    for r in rows:
        d = dict(zip(header, r))
        log_abs, delta = float(d["log_abs_delta"]), float(d["delta"])
        assert log_abs > 700.0
        if log_abs < math.log(sys.float_info.max):
            finite += 1
            assert delta == float(d["sign"]) * math.exp(log_abs)
        else:
            assert delta == float(d["sign"]) * math.inf
    assert finite == 5


@pytest.mark.parametrize("argv", [
    ["steady", "--f0", "1.0"],
    ["delta-scan"],
    ["simulate", "--Nx", "64", "--T", "2"],
    ["spectrum", "--range=-14:-0.01", "--grid", "50"]],
    ids=lambda argv: argv[0])
def test_identical_invocations_write_identical_files(tmp_path, argv):
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        a, b = (out / name for out in outs)
        if name == "manifest.json":
            # only the output directory may differ
            ma, mb = _read_json(a), _read_json(b)
            for m in (ma, mb):
                del m["output_dir"], m["flags"]["out"]
            assert ma == mb
        else:
            assert a.read_bytes() == b.read_bytes(), name


def test_manifest_echoes_the_params_the_run_used(tmp_path, monkeypatch):
    # one read of the params file: a file that changes during the run
    # cannot make the manifest disagree with the results
    pfile = tmp_path / "params.json"
    save_params(case_study(), pfile)
    reads = []
    real_load = cli.load_params

    def load(path):
        reads.append(path)
        return real_load(path)
    monkeypatch.setattr(cli, "load_params", load)
    out = tmp_path / "run"
    assert main(["steady", "--params", str(pfile), "--f0", "1.0",
                 "--out", str(out)]) == 0
    assert len(reads) == 1
    manifest = _read_json(out / "manifest.json")
    assert manifest["params"] == params_to_dict(case_study(f0=1.0))


def test_params_file_round_trip(tmp_path):
    pfile = tmp_path / "params.json"
    save_params(case_study(), pfile)
    out = tmp_path / "run"
    assert main(["sensitivity", "--params", str(pfile),
                 "--out", str(out)]) == 0
    sens = _read_json(out / "sensitivity.json")
    assert sens["lambda0"] == pytest.approx(-0.11037712315, abs=1e-8)


def test_exit_code_malformed_params(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--params", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "malformed" in capsys.readouterr().err


# the case study's physical block without H and Q_feed
_PHYSICAL = ('"epsilon": 0.67, "k": 6.0, "L_zone": 60.0, "L_column": 30.0, '
             '"u_s": 20.0, "m1": 3.06, "m2": 2.24, "m3": 2.86, "m4": 2.04')


@pytest.mark.parametrize("body, field", [
    ('{"v": [1.53, 1.12, 1.43, 1.02], "P": 1.03}', "'R'"),
    ('[1.53, 1.12, 1.43, 1.02]', "object"),
    ('{"v": 5, "R": 18.0, "P": 1.03}', "'v'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": "abc", "P": 1.03}', "'R'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, '
     '"physical": {"epsilon": 0.67, "H": 2.14}}', "'k'"),
    # each of these ran, read as 18.0, 1.0, 1.0 and -5.0, and exited 0
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": "18", "P": 1.03}', "'R'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": true, "P": 1.03}', "'R'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, '
     '"physical": {"H": true, ' + _PHYSICAL + '}}', "'H'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, '
     '"physical": {"H": 2.14, "Q_feed": -5, ' + _PHYSICAL + '}}', "'Q_feed'"),
    # an unknown key: the top-level one ran with f0 = 0 and exited 0
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, "f_0": 2.0}',
     "'f_0'"),
    ('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, '
     '"physical": {"H": 2.14, "f_0": 2.0, ' + _PHYSICAL + '}}', "'f_0'")],
    ids=["no-R", "list", "scalar-v", "string-R", "partial-physical",
         "numeric-string-R", "bool-R", "bool-physical-H",
         "negative-physical-Q_feed", "unknown-key", "unknown-physical-key"])
def test_params_file_of_the_wrong_shape_exits_2(tmp_path, capsys, body,
                                                 field):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert main(["steady", "--params", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


def test_params_file_with_a_physical_block_that_is_not_an_object_exits_2(
        tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"v": [1.53, 1.12, 1.43, 1.02], "R": 18.0, "P": 1.03, '
                   '"physical": 3}')
    assert main(["steady", "--params", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "'physical' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steady", "limit", "simulate",
                                     "delta-scan"])
def test_tol_is_an_option_only_where_it_is_read(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--tol", "1e-8", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_exit_code_missing_params_file(tmp_path):
    assert main(["analyze", "--params", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 4


def test_exit_code_numerical(tmp_path, capsys):
    # equal velocities make the steady-state system singular
    assert main(["steady", "--preset", "limit", "--f0", "1.0",
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, v, R, P", [
    # the pairing's exponentials overflow (an OverflowError traceback, exit
    # 1, when the pairing was summed in Python complex)
    (["analyze"], (1.6987584908155915, 0.7527112722056316,
                   2.3852974596306686, 1.011185600926822),
     158.49164161034025, 1.6319935293807613),
    # a column of the port matrix underflows to zero (an invalid-divide
    # RuntimeWarning, then LinAlgError, exit 1)
    (["analyze"], (2.313292462586301, 0.8850078860208157,
                   2.223751800456882, 0.4781285149130546),
     55.21472467986404, 2.853364334492751),
    # broad-domain draws 3 and 160: the steady port matrix overflows (exit
    # 3 after overflow RuntimeWarnings, and a LinAlgError traceback, exit
    # 1, while the steady solve kept its own pipeline)
    (["steady", "--f0", "1.0"], (2.3000209037645214, 1.0553174933203748,
                                 2.412995471385955, 1.1077888976352661),
     182.20564731111122, 5.950850134118066),
    (["steady", "--f0", "1.0"], (2.5068567247234346, 1.0272290093337324,
                                 2.836300762894435, 2.0127449043000922),
     47.82064573270875, 5.6368239893021865)],
    ids=["pairing-overflow", "port-column-underflow", "steady-draw-3",
         "steady-draw-160"])
def test_modes_beyond_the_double_range_exit_3(tmp_path, capsys, command, v,
                                              R, P):
    # an untyped exception or a RuntimeWarning (an error in this suite)
    # would escape main here, as a traceback does from the command line
    pfile = tmp_path / "params.json"
    save_params(ModelParams(*v, R=R, P=P), pfile)
    assert main([*command, "--params", str(pfile),
                 "--out", str(tmp_path / "run")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sensitivity_where_the_raw_rank_test_refused(tmp_path):
    # P = 0.93: the adjoint solve raised DegenerateNullspace (exit 3) when
    # rank was decided on the unscaled port matrix
    pfile = tmp_path / "params.json"
    save_params(replace(case_study(), P=0.93, physical=None), pfile)
    assert main(["sensitivity", "--params", str(pfile),
                 "--out", str(tmp_path / "run")]) == 0


def test_spectrum_grid_below_two_is_a_validation_error(tmp_path, capsys):
    assert main(["spectrum", "--grid", "-3",
                 "--out", str(tmp_path / "o")]) == 2
    assert "grid_n" in capsys.readouterr().err


def test_exit_code_validation(tmp_path):
    assert main(["simulate", "--Nx", "16", "--T", "0.5", "--p", "1.5",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--tol", "nan"],
    ["spectrum", "--range=nan:0"],
    ["spectrum", "--range=-inf:0"],
    ["delta-scan", "--range=-inf:0"],
    ["spectrum", "--range=0:-1"],
    ["delta-scan", "--range=5:-5"],
    ["simulate", "--T", "nan"],
    ["simulate", "--T", "inf"],
    ["spectrum", "--tol", "-1"],
    ["spectrum", "--tol", "nan"],
    ["delta-scan", "--grid", "0"]], ids=" ".join)
def test_non_finite_or_nonpositive_input_exits_2(tmp_path, argv):
    # a bad --range is refused by the argument parser, which exits
    try:
        code = main([*argv, "--out", str(tmp_path / "o")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["delta-scan", "--range=-1e300:1e300", "--grid", "3"],
    ["spectrum", "--range=-1e300:-1e299", "--grid", "3"]], ids=" ".join)
def test_lambda_beyond_the_scaled_form_exits_3(tmp_path, capsys, argv):
    # Delta overflows even its scaled form past |lambda| ~ 1e154: refused,
    # not written out as nan
    assert main([*argv, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = str(Path(movingbed.__file__).parents[1])
    probe = ("import sys, movingbed.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "[]"


def test_bad_range_string(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--range", "abc", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
