"""End-to-end checks of the command-line front end."""

import json
import subprocess
import sys

import pytest

import meanlab as ml
from meanlab import cli


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(args):
    return cli.run(args)


def test_emit_examples_all_parse(tmp_path):
    assert _run(["--emit-examples", "--out", str(tmp_path)]) == 0
    docs = sorted(tmp_path.glob("*.json"))
    assert len(docs) >= 15
    for doc in docs:
        json.loads(doc.read_text())


def test_classify_comb_ex2_reports_case_ii(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex2"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "classify_report.json").read_text())
    assert report["results"]["case"] == "II"
    assert report["results"]["c_star"] == 0.0
    assert report["tool"]["name"] == "meanlab"
    # one series file per grid center, header and row count per contract
    series = sorted(out.glob("series_c*.csv"))
    assert len(series) == 7
    lines = series[0].read_text().splitlines()
    assert lines[0] == "k,M,partial_mean,window_mass"
    assert len(lines) >= 61


def test_weakmean_cauchy_ladder_payload(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"measure": {"family": "cauchy", "loc": 0.0, "scale": 1.0}})
    out = tmp_path / "out"
    assert _run(["weakmean", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "weakmean_report.json").read_text())
    ladder = report["results"]["ladder"]
    assert ladder["ordinary"] == "none"
    assert ladder["weak"] is None
    assert abs(ladder["doubly_weak"]) <= 1e-6
    tail = (out / "tail_curve.csv").read_text().splitlines()
    assert tail[0] == "n,n_times_tail_probability"


def test_multiplier_window_cauchy(tmp_path):
    doc = _write(tmp_path, "m.json", {
        "measure": {"family": "cauchy", "loc": 0.0, "scale": 1.0},
        "multiplier": {"kind": "window", "c": 1.0}})
    out = tmp_path / "out"
    assert _run(["multiplier", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "multiplier_report.json").read_text())
    assert report["results"]["verdict"]["kind"] == "converged"
    assert abs(report["results"]["verdict"]["value"]) <= 1e-6
    lines = (out / "multiplier_series.csv").read_text().splitlines()
    assert lines[0] == "k,lambda,regularized_mean"


def test_maxent_unconstrained_uniform(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"n": 6, "observables": [], "targets": [], "base": "bits"})
    out = tmp_path / "out"
    assert _run(["maxent", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "maxent_report.json").read_text())
    for p in report["results"]["distribution"]:
        assert p == pytest.approx(1 / 6, abs=1e-12)


def test_maxent_infeasible_exits_1_with_error_json(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"n": 6, "observables": [[1, 2, 3, 4, 5, 6]], "targets": [7.0]})
    out = tmp_path / "out"
    assert _run(["maxent", "--input", doc, "--out", str(out)]) == 1
    error = json.loads((out / "maxent_error.json").read_text())
    assert error["error"]["type"] == "InfeasibleTargetError"


def test_lln_wlln_document(tmp_path):
    doc = _write(tmp_path, "m.json", {
        "measure": {"family": "gaussian", "mu": 0.0, "sigma": 1.0},
        "experiment": "wlln", "m": 0.0, "epsilon": 0.5,
        "n_values": [100], "replications": 100})
    out = tmp_path / "out"
    assert _run(["lln", "--input", doc, "--out", str(out), "--seed", "1"]) == 0
    report = json.loads((out / "lln_report.json").read_text())
    assert report["results"]["fractions"][0] <= 0.05
    assert report["seed"] == 1


def test_lln_trajectory_csv(tmp_path):
    doc = _write(tmp_path, "m.json", {
        "measure": {"family": "gaussian", "mu": 2.0, "sigma": 1.0},
        "experiment": "trajectory", "n": 200})
    out = tmp_path / "out"
    assert _run(["lln", "--input", doc, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "n,running_mean"
    assert len(lines) == 201


def test_axioms_subcommand(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"statistics": ["mean", "median"], "trials": 300})
    out = tmp_path / "out"
    assert _run(["axioms", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "axioms_report.json").read_text())
    assert report["results"]["mean"]["COND"]["passed"]
    assert not report["results"]["median"]["COND"]["passed"]
    assert "counterexample" in report["results"]["median"]["COND"]


def test_spectral_matrix_document(tmp_path):
    doc = _write(tmp_path, "m.json", {
        "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "state": [[1.0, 0.0], [0.0, 0.0]]})
    out = tmp_path / "out"
    assert _run(["spectral", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["results"]["mean"] == pytest.approx(0.0, abs=1e-12)
    assert report["results"]["variance"] == pytest.approx(1.0, abs=1e-12)
    assert report["results"]["split_identity_residual"] <= 1e-9


def test_spectral_bridge_document(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"bridge": {"family": "power_law_integer", "params": {"p": 3.0}}})
    out = tmp_path / "out"
    assert _run(["spectral", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["results"]["mean_exists"] is True
    assert report["results"]["variance_exists"] is False


def test_strict_schema_rejects_unknown_keys(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"measure": {"family": "cauchy"}, "extra_field": 1})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 1
    error = json.loads((out / "classify_error.json").read_text())
    assert error["error"]["type"] == "SchemaError"


def test_missing_input_file_exits_1(tmp_path):
    assert _run(["classify", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_reports_are_deterministic(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex1"}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["classify", "--input", doc, "--out", str(out1)]) == 0
    assert _run(["classify", "--input", doc, "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "classify_report.json").read_text())
    r2 = json.loads((out2 / "classify_report.json").read_text())
    assert r1["results"] == r2["results"]
    for name in ("series_c+0.csv", "series_c-4.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_floats_round_trip(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out),
                 "--schedule", "1.1,1.5,20"]) == 0
    lines = (out / "series_c+1.csv").read_text().splitlines()[1:]
    import meanlab as ml
    series = ml.limit_scan(ml.cauchy(), 1.0, ml.TruncationSchedule(count=20))
    for line, expected in zip(lines, series.values):
        assert float(line.split(",")[2]) == expected


def test_schedule_and_tol_overrides(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "gaussian"}})
    out = tmp_path / "out"
    # grids beginning with a dash need the = form so argparse keeps them
    code = _run(["classify", "--input", doc, "--out", str(out),
                 "--schedule", "1.1,1.5,30", "--c-grid=-2,-1,0,1,2",
                 "--tol", "conv_scale=1e-5"])
    assert code == 0
    report = json.loads((out / "classify_report.json").read_text())
    assert len(report["results"]["per_center"]) == 5
    assert report["config"]["schedule"] == "1.1,1.5,30"


def test_bad_tol_name_rejected(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "gaussian"}})
    assert _run(["classify", "--input", doc, "--out", str(tmp_path),
                 "--tol", "nope=3"]) == 1


def test_exit_code_mapping():
    assert cli.exit_code_for(False) == 0
    assert cli.exit_code_for(True) == 2


def test_console_entry_point_runs(tmp_path):
    doc = _write(tmp_path, "m.json",
                 {"n": 4, "observables": [], "targets": []})
    proc = subprocess.run(
        [sys.executable, "-m", "meanlab.cli", "maxent",
         "--input", doc, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout.splitlines()[-1])
    assert payload["results"]["entropy"] == pytest.approx(2.0, abs=1e-10)


def _assert_error_contract(out, subcommand, error_type):
    error = json.loads((out / f"{subcommand}_error.json").read_text())
    assert error["error"]["type"] == error_type
    assert not (out / f"{subcommand}_report.json").exists()


def test_nonfinite_measure_parameter_exits_1_with_error_json(tmp_path):
    # json.dumps writes the NaN token, which json.load accepts on input
    doc = _write(tmp_path, "m.json",
                 {"measure": {"family": "shift", "a": float("nan"),
                              "inner": {"family": "cauchy"}}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 1
    _assert_error_contract(out, "classify", "MeasureError")


def test_overflowing_schedule_exits_1_with_error_json(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out),
                 "--schedule", "1.1,1.5,2000"]) == 1
    _assert_error_contract(out, "classify", "SchemaError")


def test_arithmetic_error_exits_1_with_error_json(tmp_path, monkeypatch):
    def overflowing_handler(doc, args, schedule, policy):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._HANDLERS, "classify", overflowing_handler)
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 1
    _assert_error_contract(out, "classify", "OverflowError")


def test_unresolved_exp_tilt_quadrature_exits_1_with_error_json(tmp_path):
    # a power-tail bump of width 1e-6 at 3e4, below what quadrature resolves
    measure = {"family": "shift", "a": 3e4,
               "inner": {"family": "scale", "factor": 1e-6,
                         "inner": {"family": "power_tail", "a": 1.5, "b": 1.7}}}
    doc = _write(tmp_path, "m.json", {"measure": measure,
                                      "multiplier": {"kind": "exp_tilt", "c": 0.0}})
    out = tmp_path / "out"
    assert _run(["multiplier", "--input", doc, "--out", str(out)]) == 1
    _assert_error_contract(out, "multiplier", "QuadratureError")


def test_nonfinite_result_is_refused_not_written(tmp_path, monkeypatch):
    def nan_handler(doc, args, schedule, policy):
        return {"value": float("nan")}, [], {}, False

    monkeypatch.setitem(cli._HANDLERS, "classify", nan_handler)
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 1
    _assert_error_contract(out, "classify", "ValueError")


def test_classify_scans_each_center_once(tmp_path, scan_counts):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex4"}})
    assert _run(["classify", "--input", doc, "--out", str(tmp_path / "out")]) == 0
    assert scan_counts == {"window_stats": len(ml.DEFAULT_C_GRID)}


def test_weakmean_scans_once_and_builds_one_tail_curve(tmp_path, scan_counts):
    # the grid's centers plus the two one-sided scans of the ordinary mean
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    assert _run(["weakmean", "--input", doc, "--out", str(tmp_path / "out")]) == 0
    assert scan_counts == {"window_stats": len(ml.DEFAULT_C_GRID) + 2,
                           "tail_probability": 1}


def test_classify_series_csvs_match_an_independent_scan(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex4"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 0
    for c in ml.DEFAULT_C_GRID:
        series = ml.limit_scan(ml.comb_ex4(), c)
        columns = (series.radii, series.values, series.masses)
        rows = [",".join([str(k)] + [repr(float(col[k])) for col in columns])
                for k in range(len(series.radii))]
        lines = (out / f"series_c{c:+g}.csv").read_text().splitlines()
        assert lines == ["k,M,partial_mean,window_mass"] + rows
