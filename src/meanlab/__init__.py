"""meanlab: means of heavy-tailed probability measures.

A numpy/scipy toolkit for window-truncated mean limits and their five-way
classification, weak and doubly weak means, multiplier regularization,
law-of-large-numbers experiments, finite-state maximum entropy, sample
statistic axioms, and spectral means of Hermitian observables.
"""

__version__ = "0.1.0"

from .axioms import (AxiomId, AxiomReport, SampleStatistic, builtin_statistic,
                     check_axiom, convex_combination, mean_statistic,
                     median_statistic, two_point_coincidence)
from .genmean import (DEFAULT_C_GRID, ExpTiltMultiplier, LimitVerdict,
                      MeanLadder, MultiplierSeries, PartialMeanSeries,
                      TaxonomyReport, TruncationSchedule, VerdictPolicy,
                      WindowMultiplier, asym_partial_mean, classify_series,
                      classify_taxonomy, limit_scan, mean_ladder,
                      multiplier_mean, tail_mass_curve)
from .lln import (Sampler, StabilityReport, WllnReport, build_sampler,
                  cauchy_stability_demo, running_mean_trajectory,
                  wlln_experiment)
from .maxent import (FiniteDistribution, FiniteObservable,
                     InfeasibleTargetError, MaxEntProblem, MaxEntSolution,
                     RedundantObservableError, entropy, expected_value,
                     maxent_solve)
from .measures import (Affine, Atom, AtomicComb, DensityMeasure,
                       EmpiricalMeasure, IntegerPowerComb, Measure,
                       MeasureError, QuadratureError, cauchy, comb_ex1,
                       comb_ex2, comb_ex4, comb_ex5, finite_comb, gaussian,
                       integer_power_comb, make_measure, measure_from_document,
                       power_tail)
from .spectral import (BridgeReport, DiagonalBridge, SpectralDecomposition,
                       bridge_analyze, build_bridge, eigendecompose,
                       induced_measure, pos_neg_split, qm_mean, qm_variance,
                       window_projection_probability)
