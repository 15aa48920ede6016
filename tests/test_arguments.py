"""One checker for every scalar parameter the library takes from a document.

Each parameter below is fed NaN, an infinity, a boolean, a numeric string
and an int beyond float range.  Each must be refused with a ValueError (a
MeasureError for measure parameters) whose message names the parameter.
"""

import math

import numpy as np
import pytest

import meanlab as ml
from meanlab import genmean
from meanlab.axioms import recheck


def _sampler():
    return ml.build_sampler(ml.cauchy(), seed=0)


# (name in the message, call with the bad value, error type)
PARAMETERS = [
    ("gaussian mu", lambda v: ml.gaussian(mu=v), ml.MeasureError),
    ("gaussian sigma", lambda v: ml.gaussian(sigma=v), ml.MeasureError),
    ("cauchy loc", lambda v: ml.cauchy(loc=v), ml.MeasureError),
    ("cauchy scale", lambda v: ml.cauchy(scale=v), ml.MeasureError),
    ("power_tail a", lambda v: ml.power_tail(v, 1.5), ml.MeasureError),
    ("power_tail b", lambda v: ml.power_tail(1.5, v), ml.MeasureError),
    ("integer power comb exponent p", ml.integer_power_comb, ml.MeasureError),
    ("empirical samples", lambda v: ml.EmpiricalMeasure([0.0, v]), ml.MeasureError),
    ("affine shift", lambda v: ml.cauchy().shift(v), ml.MeasureError),
    ("scale factor", lambda v: ml.cauchy().scale(v), ml.MeasureError),
    ("schedule m0", lambda v: ml.TruncationSchedule(m0=v), ValueError),
    ("schedule ratio", lambda v: ml.TruncationSchedule(ratio=v), ValueError),
    ("schedule count", lambda v: ml.TruncationSchedule(count=v), ValueError),
    ("policy window", lambda v: ml.VerdictPolicy(window=v), ValueError),
    ("policy conv_scale", lambda v: ml.VerdictPolicy(conv_scale=v), ValueError),
    ("policy div_threshold", lambda v: ml.VerdictPolicy(div_threshold=v), ValueError),
    ("policy max_probes", lambda v: ml.VerdictPolicy(max_probes=v), ValueError),
    ("policy tail_tol", lambda v: ml.VerdictPolicy(tail_tol=v), ValueError),
    ("multiplier c", ml.WindowMultiplier, ValueError),
    ("multiplier c", ml.ExpTiltMultiplier, ValueError),
    ("lambdas[1]", lambda v: ml.multiplier_mean(ml.cauchy(), ml.WindowMultiplier(0.0),
                                                [1e-1, v, 1e-3]), ValueError),
    ("m", lambda v: ml.wlln_experiment(_sampler(), v, 1.0, [10], 100), ValueError),
    ("epsilon", lambda v: ml.wlln_experiment(_sampler(), 0.0, v, [10], 100), ValueError),
    ("n_values[1]", lambda v: ml.wlln_experiment(_sampler(), 0.0, 1.0, [10, v], 100),
     ValueError),
    ("replications", lambda v: ml.wlln_experiment(_sampler(), 0.0, 1.0, [10], v),
     ValueError),
    ("n", lambda v: ml.cauchy_stability_demo(_sampler(), v, 1000), ValueError),
    ("replications", lambda v: ml.cauchy_stability_demo(_sampler(), 10, v), ValueError),
    ("n", lambda v: ml.running_mean_trajectory(_sampler(), v), ValueError),
    ("count", lambda v: _sampler().draw(v), ValueError),
    ("n", lambda v: ml.MaxEntProblem(n=v, observables=(), targets=()), ValueError),
    ("targets[0]", lambda v: ml.MaxEntProblem(
        n=3, observables=(ml.FiniteObservable((1.0, 2.0, 3.0)),), targets=(v,)), ValueError),
    ("trials", lambda v: ml.check_axiom(ml.mean_statistic, ml.AxiomId.T, trials=v),
     ValueError),
    ("power_law bridge p", lambda v: ml.build_bridge("power_law_integer", p=v), ValueError),
    ("convex weight", ml.convex_combination, ValueError),
    ("trials", lambda v: ml.two_point_coincidence(ml.mean_statistic, ml.median_statistic,
                                                  trials=v), ValueError),
]

# Row numbers 31 and 32 are retired: they checked maxent_solve's feas_tol and
# max_steps, which are constants now.  The rows after them keep their numbers,
# so each row keeps its test id.
_ROW_IDS = [f"{i + 2 * (i >= 31)}-{row[0]}" for i, row in enumerate(PARAMETERS)]

BAD_VALUES = [math.nan, math.inf, True, "1", 10 ** 400]


@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "inf", "true", "str", "big"])
@pytest.mark.parametrize("name, call, error", PARAMETERS,
                         ids=_ROW_IDS)
def test_bad_scalar_is_refused_naming_the_parameter(name, call, error, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is error
    assert f"{name} must be" in str(err.value)


@pytest.mark.parametrize("value", [None, "0.5", 1.5])
def test_convex_weight_outside_the_unit_interval_is_refused(value):
    with pytest.raises(ValueError, match="convex weight must be"):
        ml.convex_combination(value)


@pytest.mark.parametrize("value", [0, -3, 2.5])
def test_coincidence_needs_a_whole_positive_trial_count(value):
    # 0 returned an empty report and -3 raised numpy's "negative dimensions"
    with pytest.raises(ValueError, match="trials must be >= 1 and an integer"):
        ml.two_point_coincidence(ml.mean_statistic, ml.median_statistic, trials=value)


def test_good_values_pass_the_checker_unchanged():
    # ints are numbers, and numpy scalars are too
    assert ml.gaussian(mu=np.float64(2.0), sigma=3)._map == (2.0, 3.0)
    assert ml.ExpTiltMultiplier(np.int64(2)).c == 2.0
    assert ml.TruncationSchedule(m0=2, ratio=2, count=np.int64(3)).horizon == 8.0


# Options that no caller set are constants now: the windows are closed, the
# solver, harness, tail curve and trajectory settings are fixed, and every
# user density and finite comb is checked.  Passing one of the old keywords is
# a TypeError.
_PROBLEM = ml.MaxEntProblem(n=3, observables=(ml.FiniteObservable((1.0, 2.0, 3.0)),),
                            targets=(2.5,))

REMOVED_KEYWORDS = {
    "include_lo": lambda: ml.cauchy().window_stats(0.0, 1.0, include_lo=False),
    "include_hi": lambda: ml.cauchy().window_stats(0.0, 1.0, include_hi=False),
    "feas_tol": lambda: ml.maxent_solve(_PROBLEM, feas_tol=1e-8),
    "max_steps": lambda: ml.maxent_solve(_PROBLEM, max_steps=10),
    "check_axiom axiom_tol": lambda: ml.check_axiom(ml.mean_statistic, ml.AxiomId.T,
                                                    trials=1, axiom_tol=1e-6),
    "recheck axiom_tol": lambda: recheck(ml.mean_statistic, ml.AxiomId.T,
                                         {"xs": (1.0,), "c": 1.0}, axiom_tol=1e-6),
    "AxiomReport axiom_tol": lambda: ml.AxiomReport("mean", ml.AxiomId.T, True, 1, 0,
                                                    axiom_tol=1e-6),
    "n_schedule": lambda: ml.tail_mass_curve(ml.cauchy(), n_schedule=[1.0, 10.0]),
    "stream": lambda: ml.running_mean_trajectory(_sampler(), 10, stream=(4,)),
    "max_atoms": lambda: ml.comb_ex2().atoms_within(10.0, max_atoms=5),
    "finite_comb validate": lambda: ml.finite_comb([ml.Atom(0.0, 1.0)], validate=False),
    "AtomicComb validate": lambda: ml.AtomicComb(
        "point", lambda n: ((0.0,), (1.0,)) if n == 1 else ((), ()),
        tail_mass_bound=lambda n: 0.0 if n else 1.0,
        location_floor=lambda n: math.inf if n else 0.0, validate=False),
    "validate": lambda: ml.DensityMeasure("uniform", lambda x: 0.5, support=(-1.0, 1.0),
                                          validate=False),
}


@pytest.mark.parametrize("keyword", sorted(REMOVED_KEYWORDS))
def test_removed_keyword_is_a_type_error(keyword):
    with pytest.raises(TypeError, match="unexpected keyword"):
        REMOVED_KEYWORDS[keyword]()


def test_tail_schedule_is_private():
    assert "default_tail_schedule" not in genmean.__all__
    assert not hasattr(genmean, "default_tail_schedule")
