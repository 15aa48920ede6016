"""Sample statistics and the axiom harness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanlab as ml
from meanlab.axioms import AXIOM_TOL, recheck

finite_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def test_evaluate_basics():
    assert ml.mean_statistic((0, 1, 5)) == 2
    assert ml.median_statistic((0, 1, 5)) == 1
    assert ml.builtin_statistic("midrange")((0, 1, 5)) == 2.5
    assert ml.builtin_statistic("min")((0, 1, 5)) == 0
    assert ml.builtin_statistic("max")((0, 1, 5)) == 5


def test_single_element_is_identity():
    for name in ("mean", "median", "midrange", "min", "max", "convex:0.3"):
        stat = ml.builtin_statistic(name)
        assert stat((3.7,)) == 3.7


def test_empty_tuple_rejected():
    with pytest.raises(ValueError):
        ml.mean_statistic(())


def test_even_median_averages_midmost():
    assert ml.median_statistic((4, 1, 9, 2)) == 3.0


def test_unknown_statistic_and_bad_convex_weight():
    with pytest.raises(ValueError):
        ml.builtin_statistic("mode")
    with pytest.raises(ValueError):
        ml.convex_combination(1.5)


# ---------------------------------------------------------------------------
# Axiom harness outcomes
# ---------------------------------------------------------------------------

def test_mean_passes_every_axiom():
    for ax in ml.AxiomId:
        report = ml.check_axiom(ml.mean_statistic, ax, trials=1000, seed=7)
        assert report.passed, (ax, report.counterexample)


def test_median_passes_the_order_axioms():
    for ax in (ml.AxiomId.H, ml.AxiomId.S, ml.AxiomId.T, ml.AxiomId.PH,
               ml.AxiomId.NN):
        report = ml.check_axiom(ml.median_statistic, ax, trials=1000, seed=7)
        assert report.passed, (ax, report.counterexample)


def test_median_fails_condensation_with_reverifiable_witness():
    report = ml.check_axiom(ml.median_statistic, ml.AxiomId.COND,
                            trials=1000, seed=7)
    assert not report.passed
    assert report.residual > AXIOM_TOL
    again = recheck(ml.median_statistic, ml.AxiomId.COND, report.counterexample)
    assert again == pytest.approx(report.residual)
    assert again > AXIOM_TOL


def test_median_condensation_counterexample_0_1_5():
    # replacing (0, 1) by two copies of their median moves the median
    xs = (0.0, 1.0, 5.0)
    sub = ml.median_statistic(xs[:2])
    assert ml.median_statistic((sub, sub, 5.0)) == 0.5
    assert ml.median_statistic(xs) == 1.0


def test_median_fails_additivity():
    report = ml.check_axiom(ml.median_statistic, ml.AxiomId.ADD,
                            trials=1000, seed=7)
    assert not report.passed
    assert recheck(ml.median_statistic, ml.AxiomId.ADD,
                   report.counterexample) > AXIOM_TOL


def test_convex_combination_passes_strict_order_axioms():
    stat = ml.convex_combination(0.5)
    for ax in (ml.AxiomId.H, ml.AxiomId.S, ml.AxiomId.T, ml.AxiomId.NN,
               ml.AxiomId.P, ml.AxiomId.SP):
        report = ml.check_axiom(stat, ax, trials=500, seed=3)
        assert report.passed, (ax, report.counterexample)


def test_reports_are_deterministic_given_seed():
    a = ml.check_axiom(ml.median_statistic, ml.AxiomId.COND, trials=500, seed=11)
    b = ml.check_axiom(ml.median_statistic, ml.AxiomId.COND, trials=500, seed=11)
    assert a == b


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        ml.check_axiom(ml.mean_statistic, ml.AxiomId.H, trials=0)


# ---------------------------------------------------------------------------
# Constant tuples under the location-scale axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mean", "median", "midrange", "convex:0.4"])
@given(c=finite_floats, n=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_constant_tuples_map_to_the_constant(name, c, n):
    stat = ml.builtin_statistic(name)
    assert stat((0.0,) * n) == 0.0
    assert stat((c,) * n) == pytest.approx(c, abs=1e-12)


@given(xs=st.lists(finite_floats, min_size=1, max_size=8),
       shift=finite_floats)
@settings(max_examples=60, deadline=None)
def test_mean_translation_property(xs, shift):
    stat = ml.mean_statistic
    assert stat(tuple(x + shift for x in xs)) == pytest.approx(
        stat(tuple(xs)) + shift, abs=1e-9)


@given(xs=st.lists(finite_floats, min_size=3, max_size=8),
       m=st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_mean_condensation_property(xs, m):
    xs = tuple(xs)
    m = min(m, len(xs) - 1)
    stat = ml.mean_statistic
    sub = stat(xs[:m])
    assert stat((sub,) * m + xs[m:]) == pytest.approx(stat(xs), abs=1e-9)


@given(xs=st.lists(finite_floats, min_size=1, max_size=8), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_builtin_statistics_are_permutation_invariant(xs, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(xs))
    shuffled = tuple(xs[i] for i in perm)
    for name in ("mean", "median", "midrange", "min", "max"):
        stat = ml.builtin_statistic(name)
        assert stat(shuffled) == pytest.approx(stat(tuple(xs)), abs=1e-12)


# ---------------------------------------------------------------------------
# Two-point coincidence
# ---------------------------------------------------------------------------

def test_two_point_coincidence_mean_median():
    rep = ml.two_point_coincidence(ml.mean_statistic, ml.median_statistic,
                                   trials=200, seed=0)
    assert rep.max_residual_n1 == 0.0
    assert rep.max_residual_n2 <= 1e-12
    assert rep.divergence_n3 is not None
    assert rep.divergence_n3["xs"] == (0.0, 1.0, 5.0)
    assert rep.divergence_n3["residual"] == pytest.approx(1.0)


def test_two_point_coincidence_mean_midrange():
    rep = ml.two_point_coincidence(ml.mean_statistic,
                                   ml.builtin_statistic("midrange"),
                                   trials=200, seed=0)
    assert rep.max_residual_n1 == 0.0
    assert rep.max_residual_n2 <= 1e-12
