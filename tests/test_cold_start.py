"""Where scipy loads: ``import meanlab`` needs none of it.

Only the families whose closed forms call scipy.special load it (gaussian,
power_tail and integer_power_comb when built; the Gaussian sampler and the
power-law bridge at their call), and scipy.integrate loads only for
quadrature.  The import checks run in fresh interpreters, because the
``filterwarnings`` setting in pyproject.toml names
``scipy.integrate.IntegrationWarning`` and so loads scipy.integrate into the
test process itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import meanlab as ml
from meanlab import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT_SCIPY = ("\nprint(json.dumps(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.'))))\n")


def _scipy_after(body: str) -> set[str]:
    """The scipy modules loaded once ``body`` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + body + _REPORT_SCIPY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy_after_main(tmp_path, name: str, sub: str) -> set[str]:
    doc = tmp_path / name
    doc.write_text(json.dumps(cli._example_documents()[name]))
    argv = ["meanlab", sub, "--input", str(doc), "--out", str(tmp_path / "out")]
    return _scipy_after(
        f"sys.argv = {argv!r}\n"
        "from meanlab.cli import main\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as stop:\n"
        "    assert stop.code in (0, 2), stop.code\n")


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


def test_quadrature_looks_up_quad_on_the_module(monkeypatch):
    # a tracer that wraps scipy.integrate.quad must see every quadrature call
    calls = []
    original = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])  # the interval (a, b)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    ml.multiplier_mean(ml.power_tail(1.5, 1.8), ml.ExpTiltMultiplier(0.0),
                       lam_schedule=np.geomspace(1e-1, 1e-3, 16))
    assert calls, "power_tail exp-tilt quadrature bypassed scipy.integrate.quad"

    triangle = ml.DensityMeasure("triangle", lambda x: max(0.0, 1.0 - abs(x)),
                                 support=(-1.0, 1.0))
    calls.clear()
    triangle.window_stats(-0.5, 0.25)
    assert calls, "a user density window bypassed scipy.integrate.quad"
