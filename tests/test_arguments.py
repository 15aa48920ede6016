"""One checker for every scalar parameter the library takes from a document.

Each parameter below is fed NaN, an infinity, a boolean, a numeric string
and an int beyond float range.  Each must be refused with a ValueError (a
MeasureError for measure parameters) whose message names the parameter.
"""

import math

import numpy as np
import pytest

import meanlab as ml

_PROBLEM = ml.MaxEntProblem(n=3, observables=(ml.FiniteObservable((1.0, 2.0, 3.0)),),
                            targets=(2.5,))


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
    ("feas_tol", lambda v: ml.maxent_solve(_PROBLEM, feas_tol=v), ValueError),
    ("max_steps", lambda v: ml.maxent_solve(_PROBLEM, max_steps=v), ValueError),
    ("trials", lambda v: ml.check_axiom(ml.mean_statistic, ml.AxiomId.T, trials=v),
     ValueError),
    ("power_law bridge p", lambda v: ml.build_bridge("power_law_integer", p=v), ValueError),
]

BAD_VALUES = [math.nan, math.inf, True, "1", 10 ** 400]


@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "inf", "true", "str", "big"])
@pytest.mark.parametrize("name, call, error", PARAMETERS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(PARAMETERS)])
def test_bad_scalar_is_refused_naming_the_parameter(name, call, error, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is error
    assert f"{name} must be" in str(err.value)


def test_good_values_pass_the_checker_unchanged():
    # ints are numbers, and numpy scalars are too
    assert ml.gaussian(mu=np.float64(2.0), sigma=3).location_scale() == ("gaussian", 2.0, 3.0)
    assert ml.ExpTiltMultiplier(np.int64(2)).c == 2.0
    assert ml.TruncationSchedule(m0=2, ratio=2, count=np.int64(3)).horizon == 8.0
