"""meanlab: means of heavy-tailed probability measures.

A numpy/scipy toolkit for window-truncated mean limits and their five-way
classification, weak and doubly weak means, multiplier regularization,
law-of-large-numbers experiments, finite-state maximum entropy, sample
statistic axioms, and spectral means of Hermitian observables.  Each public
name and submodule loads on first access (PEP 562), so ``import meanlab``
runs no submodule and a process pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOME = {name: module for module, names in {
    "axioms": "AxiomId AxiomReport SampleStatistic builtin_statistic check_axiom "
              "convex_combination mean_statistic median_statistic two_point_coincidence",
    "genmean": "DEFAULT_C_GRID ExpTiltMultiplier LimitVerdict MeanLadder MultiplierSeries "
               "PartialMeanSeries TaxonomyReport TruncationSchedule VerdictPolicy "
               "WindowMultiplier asym_partial_mean classify_taxonomy "
               "limit_scan mean_ladder multiplier_mean tail_mass_curve",
    "lln": "Sampler StabilityReport WllnReport build_sampler cauchy_stability_demo "
           "running_mean_trajectory wlln_experiment",
    "maxent": "FiniteDistribution FiniteObservable InfeasibleTargetError MaxEntProblem "
              "MaxEntSolution RedundantObservableError entropy expected_value maxent_solve",
    "measures": "Affine Atom AtomicComb DensityMeasure EmpiricalMeasure IntegerPowerComb "
                "Measure MeasureError QuadratureError cauchy comb_ex1 comb_ex2 comb_ex4 "
                "comb_ex5 finite_comb gaussian integer_power_comb make_measure "
                "measure_from_document power_tail",
    "spectral": "BridgeReport DiagonalBridge SpectralDecomposition bridge_analyze "
                "build_bridge eigendecompose induced_measure pos_neg_split qm_mean "
                "qm_variance window_projection_probability",
}.items() for name in names.split()}
_SUBMODULES = {*_HOME.values(), "cli"}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    return globals().setdefault(name, getattr(module, name) if name in _HOME else module)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
