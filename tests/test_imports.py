"""Every name a source module imports is used in that module, and the
package namespace resolves every public name and submodule.

Stdlib ``ast`` only: a name counts as used when it appears as a name node
anywhere in the module (annotations included).  ``from __future__`` imports
and the package ``__init__`` are exempt.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import meanlab

_SOURCES = sorted((Path(__file__).parent.parent / "src" / "meanlab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_source_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom typing import Optional, Sequence\n" \
             "def f(x: Optional[int]) -> int:\n    return x\n"
    assert unused_imports(source) == ["line 2: math", "line 3: Sequence"]


# ---------------------------------------------------------------------------
# The package namespace: every name the package exported when its __init__
# imported all submodules, now resolved on first access.
# ---------------------------------------------------------------------------

_EXPORTS = {
    "axioms": ["AxiomId", "AxiomReport", "SampleStatistic", "builtin_statistic",
               "check_axiom", "convex_combination", "mean_statistic", "median_statistic",
               "two_point_coincidence"],
    "genmean": ["DEFAULT_C_GRID", "ExpTiltMultiplier", "LimitVerdict", "MeanLadder",
                "MultiplierSeries", "PartialMeanSeries", "TaxonomyReport",
                "TruncationSchedule", "VerdictPolicy", "WindowMultiplier",
                "asym_partial_mean", "classify_taxonomy", "limit_scan",
                "mean_ladder", "multiplier_mean", "tail_mass_curve"],
    "lln": ["Sampler", "StabilityReport", "WllnReport", "build_sampler",
            "cauchy_stability_demo", "running_mean_trajectory", "wlln_experiment"],
    "maxent": ["FiniteDistribution", "FiniteObservable", "InfeasibleTargetError",
               "MaxEntProblem", "MaxEntSolution", "RedundantObservableError", "entropy",
               "expected_value", "maxent_solve"],
    "measures": ["Affine", "Atom", "AtomicComb", "DensityMeasure", "EmpiricalMeasure",
                 "IntegerPowerComb", "Measure", "MeasureError", "QuadratureError", "cauchy",
                 "comb_ex1", "comb_ex2", "comb_ex4", "comb_ex5", "finite_comb", "gaussian",
                 "integer_power_comb", "make_measure", "measure_from_document", "power_tail"],
    "spectral": ["BridgeReport", "DiagonalBridge", "SpectralDecomposition", "bridge_analyze",
                 "build_bridge", "eigendecompose", "induced_measure", "pos_neg_split",
                 "qm_mean", "qm_variance", "window_projection_probability"],
}
_EXPORTED = {name for names in _EXPORTS.values() for name in names}
_SUBMODULES = [*_EXPORTS, "cli"]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in _EXPORTS.items()
                                         for n in names])
def test_exported_name_is_its_modules_object(module, name):
    assert getattr(meanlab, name) is getattr(importlib.import_module(f"meanlab.{module}"), name)


@pytest.mark.parametrize("module", _SUBMODULES)
def test_submodule_resolves_as_an_attribute(module):
    assert getattr(meanlab, module) is importlib.import_module(f"meanlab.{module}")
    assert sys.modules[f"meanlab.{module}"] is getattr(meanlab, module)


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from meanlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == _EXPORTED
    assert sorted(meanlab.__all__) == sorted(_EXPORTED)
    assert _EXPORTED | set(_SUBMODULES) | {"__version__"} <= set(dir(meanlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        meanlab.no_such_name
    with pytest.raises(ImportError):
        exec("from meanlab import no_such_name", {})
