"""What a cold process loads: ``import meanlab`` needs no scipy, and a
``meanlab <subcommand>`` process loads only the meanlab modules, and the
numpy parts, that its subcommand runs.

Only the families whose closed forms call scipy.special load it (gaussian,
power_tail and integer_power_comb when built; the Gaussian sampler and the
power-law bridge at their call), and scipy.integrate loads only for
quadrature: user-density windows and the exp-tilt multiplier's fallback.
The import checks run in fresh interpreters, because the
``filterwarnings`` setting in pyproject.toml names
``scipy.integrate.IntegrationWarning`` and so loads scipy.integrate into the
test process itself.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import meanlab as ml
from meanlab import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT_SCIPY = ("\nprint(json.dumps(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.'))))\n")


def _fresh(body: str, report: str):
    """The JSON value ``report`` prints once ``body`` has run in a fresh
    interpreter (both run with json and sys imported)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + body + report],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_after(body: str) -> set[str]:
    """The scipy modules loaded once ``body`` has run in a fresh interpreter."""
    return set(_fresh(body, _REPORT_SCIPY))


def _main_code(argv: list[str], statuses=(0, 2)) -> str:
    """Code that runs ``meanlab.cli.main`` on ``argv`` and expects an exit
    status in ``statuses``."""
    return (f"sys.argv = {argv!r}\n"
            "from meanlab.cli import main\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as stop:\n"
            f"    assert stop.code in {statuses!r}, stop.code\n")


def _main_body(tmp_path, name: str, sub: str, document=None) -> str:
    """Code that runs ``meanlab sub`` on the example document ``name``, or on
    ``document`` when given."""
    doc = tmp_path / name
    doc.write_text(json.dumps(document or cli._example_documents()[name]))
    return _main_code(["meanlab", sub, "--input", str(doc), "--out", str(tmp_path / "out")])


def _scipy_after_main(tmp_path, name: str, sub: str, document=None) -> set[str]:
    """The scipy modules a fresh ``meanlab sub`` loads on the example document
    ``name``, or on ``document`` when given."""
    return _scipy_after(_main_body(tmp_path, name, sub, document))


def test_import_loads_no_scipy():
    assert _scipy_after("import meanlab.cli") == set()


@pytest.mark.parametrize("name,sub", [
    ("measure_cauchy.json", "classify"),
    ("measure_cauchy.json", "weakmean"),
    ("measure_comb_ex4.json", "classify"),
    ("multiplier_exp_tilt_cauchy.json", "multiplier"),
    ("maxent_mean_4p5.json", "maxent"),
    ("lln_wlln_cauchy.json", "lln"),
])
def test_example_without_scipy_families_loads_no_scipy(tmp_path, name, sub):
    assert _scipy_after_main(tmp_path, name, sub) == set()


def test_gaussian_classify_loads_special_but_not_integrate(tmp_path):
    loaded = _scipy_after_main(tmp_path, "measure_gaussian.json", "classify")
    assert "scipy.special" in loaded
    assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                   for m in loaded)


def test_power_tail_exp_tilt_loads_special_but_not_integrate(tmp_path):
    # the exp-tilt node rule needs no quadrature on a power tail
    document = {"measure": {"family": "power_tail", "a": 1.5, "b": 1.8},
                "multiplier": {"kind": "exp_tilt", "c": 0.7}}
    loaded = _scipy_after_main(tmp_path, "multiplier_exp_tilt_power_tail.json",
                               "multiplier", document)
    assert "scipy.special" in loaded
    assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                   for m in loaded)


def test_quadrature_looks_up_quad_on_the_module(monkeypatch):
    # a tracer that wraps scipy.integrate.quad must see every quadrature call
    calls = []
    original = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])  # the interval (a, b)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    triangle = ml.DensityMeasure("triangle", lambda x: max(0.0, 1.0 - abs(x)),
                                 support=(-1.0, 1.0))
    calls.clear()
    triangle.window_stats(-0.5, 0.25)
    assert calls, "a user density window bypassed scipy.integrate.quad"

    # the exp-tilt rule checks a user density's node mass against its windows
    calls.clear()
    ml.multiplier_mean(triangle, ml.ExpTiltMultiplier(0.0),
                       lam_schedule=np.geomspace(1e-1, 1e-3, 16))
    assert calls, "the exp-tilt mass check bypassed scipy.integrate.quad"


# ---------------------------------------------------------------------------
# meanlab modules and numpy.ma
# ---------------------------------------------------------------------------

_REPORT_LOADED = ("\nprint(json.dumps({'meanlab': sorted(m for m in sys.modules"
                  " if m.startswith('meanlab.')), 'numpy': 'numpy' in sys.modules,"
                  " 'numpy.ma': 'numpy.ma' in sys.modules,"
                  " 'at_clock': globals().get('at_clock', [None])[0]}))\n")

# Records the meanlab modules loaded when run() reads its clock, which starts
# the handler time that the report writes as wall_time_s.
_CLOCK_SPY = """
import time
import meanlab.cli
at_clock = []
def perf_counter(real=time.perf_counter):
    at_clock.append(sorted(m for m in sys.modules if m.startswith("meanlab.")))
    return real()
meanlab.cli.time = type(time)("time")
meanlab.cli.time.perf_counter = perf_counter
"""

# The meanlab modules each subcommand runs; its process loads no others.
_SUBCOMMAND_MODULES = {
    "classify": {"cli", "genmean", "measures"},
    "weakmean": {"cli", "genmean", "measures"},
    "multiplier": {"cli", "genmean", "measures"},
    "lln": {"cli", "lln", "measures"},
    "maxent": {"cli", "maxent", "measures"},
    "axioms": {"cli", "axioms", "measures"},
    "spectral": {"cli", "spectral", "genmean", "measures"},
}

# Example documents whose families load scipy.special, which loads numpy.ma
# itself; every other example must load no numpy.ma.
_SCIPY_SPECIAL_DOCUMENTS = {"measure_gaussian.json", "measure_power_tail.json",
                            "spectral_bridge_power_law_p3.json"}

# Measure documents run under classify and weakmean, every other document
# under the subcommand its name starts with.
_EXAMPLE_RUNS = [(name, sub) for name in cli._example_documents()
                 for sub in (("classify", "weakmean") if name.startswith("measure_")
                             else (name.split("_")[0],))]


@pytest.fixture(scope="module")
def example_runs(tmp_path_factory):
    """What each example run's fresh process loaded, by (document, subcommand)."""
    def one(run):
        body = _main_body(tmp_path_factory.mktemp("cold"), *run)
        return run, _fresh(_CLOCK_SPY + body, _REPORT_LOADED)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, _EXAMPLE_RUNS))


def test_import_cli_loads_no_library_module_and_no_numpy():
    loaded = _fresh("import meanlab.cli", _REPORT_LOADED)
    assert loaded["meanlab"] == ["meanlab.cli"]
    assert not loaded["numpy"]


def test_import_meanlab_loads_no_submodule_until_first_use():
    loaded = _fresh("import meanlab\nassert meanlab.__all__ and dir(meanlab)", _REPORT_LOADED)
    assert loaded["meanlab"] == [] and not loaded["numpy"]
    loaded = _fresh("import meanlab\nmeanlab.qm_mean", _REPORT_LOADED)
    assert loaded["meanlab"] == ["meanlab.genmean", "meanlab.measures", "meanlab.spectral"]
    assert not loaded["numpy.ma"]


def test_emit_examples_help_and_usage_errors_load_no_numpy(tmp_path):
    for argv in (["meanlab", "--emit-examples", "--out", str(tmp_path)], ["meanlab", "--help"],
                 ["meanlab", "classify"], ["meanlab", "lln", "--input", "x", "--bogus"]):
        loaded = _fresh(_main_code(argv, (0, 1)), _REPORT_LOADED)
        assert loaded["meanlab"] == ["meanlab.cli"] and not loaded["numpy"], argv
    assert len(list(tmp_path.glob("*.json"))) == len(cli._example_documents())


@pytest.mark.parametrize("name,sub", _EXAMPLE_RUNS)
def test_example_loads_only_its_subcommands_modules(example_runs, name, sub):
    assert set(example_runs[name, sub]["meanlab"]) == {
        f"meanlab.{m}" for m in _SUBCOMMAND_MODULES[sub]}


@pytest.mark.parametrize("name,sub", _EXAMPLE_RUNS)
def test_wall_time_excludes_module_loading(example_runs, name, sub):
    # every meanlab module the run loads is loaded before the handler clock starts
    run = example_runs[name, sub]
    assert run["at_clock"] == run["meanlab"]


@pytest.mark.parametrize("name,sub", [run for run in _EXAMPLE_RUNS
                                      if run[0] not in _SCIPY_SPECIAL_DOCUMENTS])
def test_example_without_scipy_special_loads_no_numpy_ma(example_runs, name, sub):
    assert not example_runs[name, sub]["numpy.ma"]
