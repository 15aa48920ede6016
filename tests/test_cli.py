"""End-to-end checks of the command-line front end."""

import dataclasses
import json
import math
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


_CAUCHY = {"family": "cauchy"}


_BIG = 10 ** 400  # a JSON integer beyond float range

# (subcommand, document, text of the message that names the key, error type,
# label of the row in its test id); the first 23 rows keep the labels they had
# when the CLI type-checked every key and quoted it in its own message.
_MALFORMED = [
    ("axioms", {"statistics": ["mean"], "axioms": ["BOGUS"]}, "axioms", "SchemaError", None),
    ("axioms", {"statistics": [3]}, "statistics", "SchemaError", None),
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": "zero", "epsilon": 1.0,
             "n_values": [10], "replications": 100}, "m must be", "ValueError", "'m'"),
    ("lln", {"measure": _CAUCHY, "experiment": "stability", "n": 10,
             "replications": "many"}, "replications must be", "ValueError", "'replications'"),
    ("lln", {"measure": _CAUCHY, "experiment": "trajectory", "n": "10"}, "n must be",
     "ValueError", "'n'"),
    ("lln", [1, 2], "document", "SchemaError", None),
    ("maxent", {"n": [3], "observables": [], "targets": []}, "n must be", "ValueError", "'n'"),
    ("spectral", {"matrix": 5, "state": [[1.0, 0.0]]}, "'matrix'", "SchemaError", None),
    ("spectral", {"bridge": {"family": "power_law_integer", "params": {"q": 3}}}, "'q'",
     "SchemaError", None),
    ("multiplier", {"measure": _CAUCHY, "multiplier": {"kind": "window", "c": [1]}},
     "multiplier c", "ValueError", "'c'"),
    ("classify", {"measure": {"family": "shift", "a": 1.0}}, "'inner'", "MeasureError", None),
    # measure parameters are JSON numbers: numeric strings and booleans are refused
    ("classify", {"measure": {"family": "gaussian", "mu": "3"}}, "gaussian mu",
     "MeasureError", None),
    ("classify", {"measure": {"family": "gaussian", "mu": True}}, "gaussian mu",
     "MeasureError", None),
    ("classify", {"measure": {"family": "empirical", "samples": ["1", "2.5", 3]}},
     "empirical samples", "MeasureError", None),
    ("classify", {"measure": {"family": "shift", "inner": _CAUCHY, "a": "1e3"}},
     "affine shift", "MeasureError", None),
    ("classify", {"measure": {"family": "power_tail", "a": "1.5", "b": 1.5}},
     "power_tail a", "MeasureError", None),
    # LLN inputs the experiments cannot use are refused before any draw
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": 0.0, "epsilon": -1.0,
             "n_values": [10], "replications": 100}, "epsilon must be", "ValueError",
     "'epsilon'"),
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": 0.0, "epsilon": math.nan,
             "n_values": [10], "replications": 100}, "epsilon must be", "ValueError",
     "'epsilon'"),
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": math.inf, "epsilon": 1.0,
             "n_values": [10], "replications": 100}, "m must be", "ValueError", "'m'"),
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": 0.0, "epsilon": 1.0,
             "n_values": [], "replications": 100}, "n_values", "ValueError", "'n_values'"),
    ("lln", {"measure": _CAUCHY, "experiment": "wlln", "m": 0.0, "epsilon": 1.0,
             "n_values": [10, 0], "replications": 100}, "n_values", "ValueError",
     "'n_values'"),
    ("lln", {"measure": _CAUCHY, "experiment": "stability", "n": 0,
             "replications": 1000}, "n must be", "ValueError", "'n'"),
    ("lln", {"measure": _CAUCHY, "experiment": "trajectory", "n": -5}, "n must be",
     "ValueError", "'n'"),
    # values that once got past the document checks into a scan, a solve, a
    # float conversion or a dict lookup, which failed late or named no key
    ("multiplier", {"measure": _CAUCHY, "multiplier": {"kind": "window", "c": math.nan}},
     "multiplier c", "ValueError", "c-nan"),
    ("multiplier", {"measure": _CAUCHY, "multiplier": {"kind": "exp_tilt", "c": math.inf}},
     "multiplier c", "ValueError", "c-inf"),
    ("multiplier", {"measure": _CAUCHY, "multiplier": {"kind": "window"},
                    "lambdas": [1e-1, math.nan, 1e-3]}, "lambdas[1]", "ValueError",
     "lambdas-nan"),
    ("maxent", {"n": 3, "observables": [[1, 2, 3]], "targets": [math.nan]}, "targets[0]",
     "ValueError", "target-nan"),
    ("classify", {"measure": {"family": "power_tail", "a": _BIG, "b": 1.5}}, "power_tail a",
     "MeasureError", "power_tail-big"),
    ("classify", {"measure": {"family": "empirical", "samples": [1.0, _BIG]}},
     "empirical samples", "MeasureError", "empirical-big"),
    ("multiplier", {"measure": _CAUCHY, "multiplier": {"kind": "window", "c": _BIG}},
     "multiplier c", "ValueError", "c-big"),
    ("spectral", {"bridge": {"family": "power_law_integer", "params": {"p": _BIG}}},
     "power_law bridge p", "ValueError", "bridge-big"),
    ("maxent", {"n": _BIG, "observables": [], "targets": []}, "n must be", "ValueError",
     "n-big"),
    ("maxent", {"n": 3, "observables": [[1, 2, 3]], "targets": [_BIG]}, "targets[0]",
     "ValueError", "target-big"),
    ("spectral", {"matrix": [[[1.0, 0.0, 3.0]]], "state": [[1.0, 0.0]]}, "'matrix'",
     "SchemaError", "matrix-triple"),
    ("spectral", {"matrix": [[[1.0, 0.0]]], "state": [[1.0]]}, "'state'", "SchemaError",
     "state-single"),
    ("spectral", {"bridge": {"family": ["dyadic_symmetric"]}}, "unknown bridge family",
     "ValueError", "bridge-family-list"),
    # ints beyond float range inside number lists are named by their position
    ("maxent", {"n": 3, "observables": [[1, 2, _BIG]], "targets": [2.0]},
     "observables[0][2]", "ValueError", "observable-big"),
    ("spectral", {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [_BIG, 0.0]]],
                  "state": [[1.0, 0.0], [0.0, 0.0]]}, "matrix[1][1]", "ValueError",
     "matrix-big"),
    ("spectral", {"matrix": [[[1.0, 0.0]]], "state": [[1.0, _BIG]]}, "state[0]",
     "ValueError", "state-big"),
    # a state of another dimension than the matrix
    ("spectral", {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                  "state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, "dimension mismatch: 2 vs 3",
     "ValueError", "state-dimension"),
]


@pytest.mark.parametrize("subcommand, doc, key, error_type", [
    pytest.param(*row[:4], id=f"{row[0]}-doc{i}-{row[4] or row[2]}")
    for i, row in enumerate(_MALFORMED)])
def test_malformed_documents_exit_1_with_error_json(tmp_path, capsys, subcommand, doc, key,
                                                    error_type):
    path = _write(tmp_path, "doc.json", doc)
    out = tmp_path / "out"
    assert _run([subcommand, "--input", path, "--out", str(out)]) == 1
    error = json.loads((out / f"{subcommand}_error.json").read_text())["error"]
    assert error["type"] == error_type
    assert key in error["message"]
    assert not (out / f"{subcommand}_report.json").exists()
    assert capsys.readouterr().err == ""


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


def test_removed_jitter_tolerance_exits_1_listing_the_known_names(tmp_path):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "gaussian"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out),
                 "--tol", "jitter=1e-6"]) == 1
    _assert_error_contract(out, "classify", "SchemaError")
    message = json.loads((out / "classify_error.json").read_text())["error"]["message"]
    known = sorted(f.name for f in dataclasses.fields(ml.VerdictPolicy))
    assert message.endswith(f"known: {known}")


@pytest.mark.parametrize("tol", [
    "conv_scale=-1", "conv_scale=nan", "tail_tol=nan", "div_threshold=inf",
    "window=0", "window=2.5", "max_probes=-1",
])
def test_bad_tolerance_values_exit_1_naming_the_field(tmp_path, tol):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex2"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out), "--tol", tol]) == 1
    assert not (out / "classify_report.json").exists()
    error = json.loads((out / "classify_error.json").read_text())["error"]
    assert tol.split("=")[0] in error["message"]


@pytest.mark.parametrize("grid", ["-1,nan,0,1,2", "-inf,-1,0,1,2"])
def test_nonfinite_c_grid_exits_1(tmp_path, grid):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "gaussian"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out), f"--c-grid={grid}"]) == 1
    _assert_error_contract(out, "classify", "SchemaError")
    assert "--c-grid expects finite centers" in (out / "classify_error.json").read_text()


_GAUSSIAN = {"family": "gaussian"}
_GRIDLESS_DOCUMENTS = {  # a valid document for every subcommand but classify
    "weakmean": {"measure": _GAUSSIAN},
    "multiplier": {"measure": _GAUSSIAN, "multiplier": {"kind": "window"}},
    "lln": {"measure": _GAUSSIAN, "experiment": "trajectory", "n": 10},
    "maxent": {"n": 4, "observables": [], "targets": []},
    "axioms": {"statistics": ["mean"], "trials": 10},
    "spectral": {"bridge": {"family": "dyadic_symmetric"}},
}


@pytest.mark.parametrize("subcommand", sorted(set(cli._HANDLERS) - {"classify"}))
def test_c_grid_is_refused_where_it_is_not_read(tmp_path, subcommand):
    doc = _write(tmp_path, "m.json", _GRIDLESS_DOCUMENTS[subcommand])
    out = tmp_path / "out"
    assert _run([subcommand, "--input", doc, "--out", str(out)]) in (0, 2)
    assert _run([subcommand, "--input", doc, "--out", str(out),
                 "--c-grid=-2,-1,0,1,2"]) == 1
    error = json.loads((out / f"{subcommand}_error.json").read_text())["error"]
    assert error["type"] == "SchemaError" and "--c-grid" in error["message"]


@pytest.mark.parametrize("subcommand", ["axioms", "lln", "maxent"])
def test_schedule_and_tol_are_refused_where_they_are_not_read(tmp_path, subcommand):
    doc = _write(tmp_path, "m.json", _GRIDLESS_DOCUMENTS[subcommand])
    assert _run([subcommand, "--input", doc, "--out", str(tmp_path / "plain")]) == 0
    for flag, value in (("--schedule", "1,2,3"), ("--tol", "window=3")):
        out = tmp_path / flag.strip("-")
        assert _run([subcommand, "--input", doc, "--out", str(out), flag, value]) == 1
        _assert_error_contract(out, subcommand, "SchemaError")
        error = json.loads((out / f"{subcommand}_error.json").read_text())["error"]
        assert flag in error["message"] and subcommand in error["message"]


@pytest.mark.parametrize("argv,fragment", [
    (["classify"], "--input"),
    (["classify", "--input", "x.json", "--seed", "abc"], "--seed"),
    (["bogus"], "bogus"),
], ids=["no-input", "bad-seed", "unknown-subcommand"])
def test_command_line_errors_exit_1_not_the_undetermined_status(tmp_path, monkeypatch,
                                                                capsys, argv, fragment):
    monkeypatch.chdir(tmp_path)  # the default --out, which gets no error file
    assert _run(argv) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert error["subcommand"] is None
    assert error["error"]["type"] == "SchemaError"
    assert fragment in error["error"]["message"]
    assert captured.err.startswith("usage: meanlab")
    assert list(tmp_path.iterdir()) == []


def test_no_subcommand_is_a_command_line_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run([]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert error["subcommand"] is None
    assert error["error"]["type"] == "SchemaError"
    assert "subcommand" in error["error"]["message"]
    assert captured.err.startswith("usage: meanlab")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("before, after, used", [
    ("top", None, "top"), (None, "sub", "sub"), ("top", "sub", "sub")])
def test_the_out_given_last_wins(tmp_path, monkeypatch, before, after, used):
    monkeypatch.chdir(tmp_path)
    doc = _write(tmp_path, "m.json", {"n": 4, "observables": [], "targets": []})
    argv = ["--out", before] if before else []
    argv += ["maxent", "--input", doc] + (["--out", after] if after else [])
    assert _run(argv) == 0
    assert (tmp_path / used / "maxent_report.json").exists()
    assert not (tmp_path / "maxent_report.json").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        _run(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: meanlab")


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


@pytest.mark.parametrize("depth", [900, 100_000])
def test_a_document_nested_too_deep_exits_1_with_error_json(tmp_path, depth):
    # in a fresh process: the recursion error may strike inside a lazy import
    path = tmp_path / "m.json"
    path.write_text('{"measure": ' + '{"family": "negate", "inner": ' * depth
                    + '{"family": "gaussian"}' + "}" * (depth + 1))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "meanlab.cli", "classify",
                           "--input", str(path), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    [line] = proc.stdout.splitlines()
    assert json.loads(line)["error"]["type"] == "RecursionError"
    _assert_error_contract(out, "classify", "RecursionError")


def test_the_benchmark_affine_wrap_is_accepted(tmp_path):
    # perfbench's "affine" wrap: negate, then scale, then shift
    measure = {"family": "shift", "a": 1.5, "inner": {
        "family": "scale", "factor": 2.3, "inner": {
            "family": "negate", "inner": {"family": "gaussian"}}}}
    doc = _write(tmp_path, "m.json", {"measure": measure})
    out = tmp_path / "out"
    assert _run(["weakmean", "--input", doc, "--out", str(out)]) == 0
    report = json.loads((out / "weakmean_report.json").read_text())
    assert report["results"]["ladder"]["ordinary_value"] == pytest.approx(1.5)


def test_nonfinite_result_is_refused_not_written(tmp_path, monkeypatch):
    def nan_handler(doc, args, schedule, policy):
        return {"value": float("nan")}, [], {}, False

    monkeypatch.setitem(cli._HANDLERS, "classify", nan_handler)
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    out = tmp_path / "out"
    assert _run(["classify", "--input", doc, "--out", str(out)]) == 1
    _assert_error_contract(out, "classify", "ValueError")


def test_classify_scans_each_center_once(tmp_path, scan_counts):
    # an atomic measure answers every center in one call, each row anchored apart
    doc = _write(tmp_path, "m.json", {"measure": {"family": "comb_ex4"}})
    assert _run(["classify", "--input", doc, "--out", str(tmp_path / "out")]) == 0
    assert scan_counts == {"window_stats": 1}


def test_density_classify_scans_every_center_in_one_call(tmp_path, scan_counts):
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    assert _run(["classify", "--input", doc, "--out", str(tmp_path / "out")]) == 0
    assert scan_counts == {"window_stats": 1}


def test_weakmean_scans_once_and_builds_one_tail_curve(tmp_path, scan_counts):
    # one call for the grid's centers and the two one-sided scans of the
    # ordinary mean
    doc = _write(tmp_path, "m.json", {"measure": {"family": "cauchy"}})
    assert _run(["weakmean", "--input", doc, "--out", str(tmp_path / "out")]) == 0
    assert scan_counts == {"window_stats": 1, "tail_probability": 1}


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
