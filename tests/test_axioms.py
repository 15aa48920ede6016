"""Sample statistics and the axiom harness."""

import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanlab as ml
from meanlab import axioms
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


_BUILTINS = ["mean", "median", "midrange", "min", "max", "convex:0.5"]


@pytest.mark.parametrize("name", _BUILTINS)
def test_user_wrapped_statistic_gives_the_builtin_report(name):
    # a plain SampleStatistic has no row-wise form, so every trial goes
    # through the scalar path; equal reports mean the screen skipped no
    # violating row before the reported one
    builtin = ml.builtin_statistic(name)
    wrapped = ml.SampleStatistic(builtin.name, builtin.fn)
    for ax in ml.AxiomId:
        for seed in (0, 1, 7):
            a = ml.check_axiom(builtin, ax, trials=400, seed=seed)
            b = ml.check_axiom(wrapped, ax, trials=400, seed=seed)
            assert a == b, (ax, seed)


@pytest.mark.parametrize("name", _BUILTINS)
def test_screen_flags_exactly_the_violating_rows(name):
    # the exact form, judged row by row, is the reference for the numpy screen
    stat = ml.builtin_statistic(name)
    for ax in ml.AxiomId:
        min_n = 3 if ax in (ml.AxiomId.COND, ml.AxiomId.ADD) else 1
        block = axioms._draw_block(np.random.default_rng(5), ax, 0, 256, min_n)
        flagged = np.zeros(256, dtype=bool)
        for n in np.unique(block["n"]):
            idx = np.flatnonzero(block["n"] == n)
            flagged[idx] = axioms._judge(stat._screen_rows, ax, axioms._cut(block, idx, n),
                                         axioms._SCREEN_BAND)[1]
        violated = [bool(axioms._judge(stat._rows, ax, axioms._cut(block, [i], block["n"][i]),
                                       0.0)[1][0])
                    for i in range(256)]
        assert flagged.tolist() == violated, ax


def test_screen_flags_a_margin_equal_to_the_tolerance():
    # positivity needs a margin above the tolerance, so a margin equal to it
    # violates the axiom and the screen must pass the row on to the exact form
    xs, ys = np.zeros((1, 8)), np.zeros((1, 8))
    ys[0, 0] = AXIOM_TOL
    cols = axioms._cut({"n": np.array([1]), "xs": xs, "ys": ys}, [0], 1)
    for ax in (ml.AxiomId.P, ml.AxiomId.SP):
        assert axioms._judge(ml.mean_statistic._rows, ax, cols, 0.0)[1].tolist() == [True]
        assert axioms._judge(ml.mean_statistic._screen_rows, ax, cols,
                             axioms._SCREEN_BAND)[1].tolist() == [True]


_FIRST = ml.SampleStatistic("first", lambda xs: xs[0])

# One witness per axiom with its residual worked out by hand; every value is
# exact in binary, so ``recheck`` must return the residual exactly.
HAND_WITNESSES = [
    # min(-1, -2) = -2 against -1 * min(1, 2) = -1
    (ml.builtin_statistic("min"), "H", {"xs": (1.0, 2.0), "lam": -1.0}, 1.0),
    # first(4, 1) = 4 against first(1, 4) = 1
    (_FIRST, "S", {"xs": (1.0, 4.0), "perm": (1, 0)}, 3.0),
    # max |x| of (0, 1.5) = 1.5 against max |x| of (-1, 0.5) + 1 = 2
    (ml.SampleStatistic("max abs", lambda xs: max(abs(x) for x in xs)), "T",
     {"xs": (-1.0, 0.5), "c": 1.0}, 0.5),
    # the stored split m = 2 condenses (0, 1) to 0.5: median(0.5, 0.5, 5, 6)
    # = 2.75 against median(0, 1, 5, 6) = 3; the worst split, m = 3, gives 2
    (ml.median_statistic, "COND", {"xs": (0.0, 1.0, 5.0, 6.0), "m": 2, "substat": 0.5},
     0.25),
    # 1 + 4 = 5 against 2 * (1 + 2) = 6
    (ml.SampleStatistic("shifted", lambda xs: 1.0 + xs[0]), "PH",
     {"xs": (2.0,), "lam": 2.0}, 1.0),
    # -first falls by 2 when the entry rises from 1 to 3
    (ml.SampleStatistic("first negated", lambda xs: -xs[0]), "NN",
     {"xs": (1.0,), "ys": (3.0,)}, 2.0),
    # raising the larger entry leaves the min at 0: margin 0, residual 2 tol
    (ml.builtin_statistic("min"), "P", {"xs": (0.0, 1.0), "ys": (0.0, 2.0), "margin": 0.0},
     2 * AXIOM_TOL),
    (ml.SampleStatistic("zero", lambda xs: 0.0), "SP",
     {"xs": (0.0, 1.0), "ys": (0.5, 1.5), "margin": 0.0}, 2 * AXIOM_TOL),
    # median(5, 2, 5) = 5 against median(0, 1, 5) + median(5, 1, 0) = 2
    (ml.median_statistic, "ADD", {"xs": (0.0, 1.0, 5.0), "ys": (5.0, 1.0, 0.0)}, 3.0),
]


@pytest.mark.parametrize("stat, axiom, witness, residual", HAND_WITNESSES,
                         ids=[row[1] for row in HAND_WITNESSES])
def test_recheck_gives_the_hand_computed_residual(stat, axiom, witness, residual):
    assert recheck(stat, ml.AxiomId[axiom], witness) == residual


def test_edge_tuples_below_the_minimum_size_are_skipped():
    # f(0) = 1 breaks additivity on every tuple; the one-point edge tuple is
    # skipped for additivity, so the first violation is the second trial
    shifted = ml.SampleStatistic("shifted", lambda xs: 1.0 + xs[0])
    report = ml.check_axiom(shifted, ml.AxiomId.ADD, trials=10, seed=0)
    assert report.trials == 2 and report.counterexample["xs"] == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("name, axiom", [("median", "COND"), ("median", "P"),
                                         ("median", "ADD"), ("min", "H"),
                                         ("max", "H")])
def test_failures_are_stable_under_a_larger_trial_budget(name, axiom):
    stat = ml.builtin_statistic(name)
    short = ml.check_axiom(stat, ml.AxiomId[axiom], trials=50, seed=0)
    long = ml.check_axiom(stat, ml.AxiomId[axiom], trials=2000, seed=0)
    assert not short.passed and short.trials <= 50
    assert short == long


def test_min_homogeneity_fails_on_a_drawn_tuple_within_50_trials():
    # the prefix-stability cases above include a failure past the edge tuples
    report = ml.check_axiom(ml.builtin_statistic("min"), ml.AxiomId.H,
                            trials=50, seed=0)
    assert len(axioms._EDGE_TUPLES) < report.trials <= 50


def _count_generators(monkeypatch):
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


@pytest.mark.parametrize("stat", [ml.mean_statistic,
                                  ml.SampleStatistic("user mean", statistics.fmean)])
def test_one_generator_per_check(monkeypatch, stat):
    made = _count_generators(monkeypatch)
    for ax in ml.AxiomId:
        made.clear()
        ml.check_axiom(stat, ax, trials=3000, seed=4)
        assert made == [(4,)], ax
    made.clear()
    ml.check_axiom(ml.median_statistic, ml.AxiomId.COND, trials=3000, seed=4)
    assert made == [(4,)]


def test_one_generator_per_coincidence_check(monkeypatch):
    made = _count_generators(monkeypatch)
    ml.two_point_coincidence(ml.mean_statistic, ml.median_statistic, trials=300, seed=2)
    assert made == [(2,)]


def test_a_failing_check_draws_only_its_first_block(monkeypatch):
    drawn = []
    real = axioms._draw_block

    def spy(rng, axiom, start, rows, min_n):
        drawn.append((start, rows))
        return real(rng, axiom, start, rows, min_n)

    monkeypatch.setattr(axioms, "_draw_block", spy)
    report = ml.check_axiom(ml.median_statistic, ml.AxiomId.COND, trials=10**6, seed=0)
    assert not report.passed
    assert drawn == [(0, axioms._BLOCK_ROWS[0])]
    # a passing check draws blocks in schedule order until its budget is covered
    drawn.clear()
    ml.check_axiom(ml.mean_statistic, ml.AxiomId.T, trials=3000, seed=0)
    starts = [0]
    for _, rows in drawn:
        starts.append(starts[-1] + rows)
    assert [s for s, _ in drawn] == starts[:-1]
    assert starts[-2] < 3000 <= starts[-1]


def test_recheck_reproduces_every_golden_residual_exactly():
    golden = Path(__file__).parent / "golden" / "axioms_mean_median.axioms.json"
    results = json.loads(golden.read_text())["results"]
    failing = [(name, ax, entry) for name, per in results.items()
               for ax, entry in per.items() if not entry["passed"]]
    assert failing
    for name, ax, entry in failing:
        again = recheck(ml.builtin_statistic(name), ml.AxiomId[ax], entry["counterexample"])
        assert again == entry["residual"], (name, ax)


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
