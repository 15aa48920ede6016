"""Partial-mean scans, the five-case taxonomy, ladders, and multipliers."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import meanlab as ml
from meanlab.genmean import _classify_values

SCHED = ml.TruncationSchedule()
POLICY = ml.VerdictPolicy()


# ---------------------------------------------------------------------------
# limit_scan
# ---------------------------------------------------------------------------

def test_comb_ex1_centered_scan_is_exactly_zero_or_minus_one():
    series = ml.limit_scan(ml.comb_ex1(), 0.0)
    values = set(series.values.tolist())
    assert values <= {0.0, -1.0}
    assert int(np.sum(series.values == 0.0)) >= 5
    assert int(np.sum(series.values == -1.0)) >= 5


def test_comb_ex2_centered_scan_vanishes():
    series = ml.limit_scan(ml.comb_ex2(), 0.0)
    assert np.all(series.values == 0.0)


def test_cauchy_scan_matches_closed_form():
    c = 3.0
    series = ml.limit_scan(ml.cauchy(), c)
    for M, s in zip(series.radii, series.values):
        exact = (math.log1p((c + M) ** 2) - math.log1p((c - M) ** 2)) / (2 * math.pi)
        assert s == pytest.approx(exact, abs=1e-12)
        # the value decays like 2c / (pi M), crossing 1e-6 near M = 2e6
        if M >= 1e7:
            assert abs(s) <= 1e-6


def test_series_masses_nondecreasing():
    series = ml.limit_scan(ml.comb_ex4(), 1.0)
    assert np.all(np.diff(series.masses) >= -1e-15)


# ---------------------------------------------------------------------------
# classify_series
# ---------------------------------------------------------------------------

def test_classify_gaussian_converges_to_its_mean():
    v = ml.classify_series(ml.limit_scan(ml.gaussian(2, 1), 0.0))
    assert v.kind == "converged"
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_classify_comb_ex1_oscillates_bounded():
    v = ml.classify_series(ml.limit_scan(ml.comb_ex1(), 0.0))
    assert v.kind == "oscillates_bounded"
    assert v.liminf_est == pytest.approx(-1.0, abs=1e-9)
    assert v.limsup_est == pytest.approx(0.0, abs=1e-9)


def test_classify_comb_ex4_diverges_at_positive_center():
    v = ml.classify_series(ml.limit_scan(ml.comb_ex4(), 1.0))
    assert v.kind == "diverges_plus"


def test_classify_rejects_short_series():
    vals = np.zeros(7)
    with pytest.raises(ValueError):
        _classify_values(vals, POLICY)


def test_classify_undetermined_on_isolated_spike():
    vals = np.zeros(24)
    vals[20] = 1.0
    assert _classify_values(vals, POLICY).kind == "undetermined"


# ---------------------------------------------------------------------------
# Five-case taxonomy
# ---------------------------------------------------------------------------

def test_taxonomy_case_ii_for_symmetric_dyadic_comb():
    rep = ml.classify_taxonomy(ml.comb_ex2())
    assert rep.case == "II"
    assert rep.c_star == 0.0


def test_taxonomy_case_v_for_negated_comb_ex4():
    rep = ml.classify_taxonomy(ml.comb_ex4().negate())
    assert rep.case == "V"
    kinds = {c: v.kind for c, v in rep.per_center.items()}
    assert kinds[-4.0] == "diverges_minus"
    assert kinds[4.0] == "oscillates_unbounded_below"


def test_taxonomy_negation_swaps_cases_iv_and_v():
    rep_iv = ml.classify_taxonomy(ml.comb_ex4())
    rep_v = ml.classify_taxonomy(ml.comb_ex4().negate())
    assert (rep_iv.case, rep_v.case) == ("IV", "V")
    assert rep_v.c_threshold == pytest.approx(-rep_iv.c_threshold)


def test_taxonomy_finite_agreement_for_cauchy():
    rep = ml.classify_taxonomy(ml.cauchy())
    assert rep.case == "III_finite"
    values = [v.value for v in rep.per_center.values()]
    tol = 2 * max(v.conv_tol for v in rep.per_center.values())
    assert max(values) - min(values) <= tol
    assert abs(rep.common_value) <= 1e-6


def test_taxonomy_rejects_bad_grid():
    with pytest.raises(ValueError):
        ml.classify_taxonomy(ml.cauchy(), c_grid=(0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        ml.classify_taxonomy(ml.cauchy(), c_grid=(-1.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# Window decomposition identity (split at shifted boundaries)
# ---------------------------------------------------------------------------

def _decomposition_check(measure, c1, c2, M, exact_tol):
    lhs = measure.window_stats(c2 - M, c2 + M)[1]
    base = measure.window_stats(c1 - M, c1 + M)[1]
    upper = measure.window_stats(c1 + M, c2 + M,
                                 include_lo=False, include_hi=True)[1]
    lower = measure.window_stats(c1 - M, c2 - M,
                                 include_lo=True, include_hi=False)[1]
    if M > max(abs(c1), abs(c2)):
        assert upper >= 0.0
        assert -lower >= 0.0
    assert lhs == pytest.approx(base + upper - lower, abs=exact_tol)


@pytest.mark.parametrize("c1,c2", [(-2.0, 1.0), (0.0, 3.0), (-4.5, -0.5)])
def test_decomposition_identity_exact_for_dyadic_combs(c1, c2):
    # dyadic atom contributions are exactly representable, so the identity
    # holds with zero residual
    for measure in (ml.comb_ex1(), ml.comb_ex2()):
        for M in ml.TruncationSchedule(count=30).radii():
            _decomposition_check(measure, c1, c2, M, exact_tol=0.0)


def test_decomposition_identity_triadic_and_density():
    # triadic weights round, so allow rounding-scale slack; densities get
    # three times the quadrature budget
    for M in ml.TruncationSchedule(count=25).radii():
        _decomposition_check(ml.comb_ex4(), -1.5, 2.5, M, exact_tol=1e-9)
        _decomposition_check(ml.cauchy(), -1.5, 2.5, M, exact_tol=3e-10)


# ---------------------------------------------------------------------------
# Asymmetric windows
# ---------------------------------------------------------------------------

def test_asym_path_dependence_for_cauchy():
    m = ml.cauchy()
    for M in (10.0, 1e3, 1e5):
        assert ml.asym_partial_mean(m, 0, 0, M, M) == pytest.approx(0.0, abs=1e-6)
    got = ml.asym_partial_mean(m, 0, 0, 1e3, 2e3)
    assert got == pytest.approx(math.log(2) / math.pi, abs=1e-3)


def test_asym_paths_agree_for_gaussian():
    m = ml.gaussian(0, 1)
    for M in (20.0, 40.0, 80.0):
        assert ml.asym_partial_mean(m, 0, 0, M, M) == pytest.approx(0.0, abs=1e-8)
        assert ml.asym_partial_mean(m, 0, 0, M, 2 * M) == pytest.approx(0.0, abs=1e-8)


def test_asym_argument_validation():
    with pytest.raises(ValueError):
        ml.asym_partial_mean(ml.gaussian(), 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ml.asym_partial_mean(ml.gaussian(), 0.0, 1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Tail mass curve
# ---------------------------------------------------------------------------

def test_tail_curve_gaussian_vanishes_fast():
    curve = ml.tail_mass_curve(ml.gaussian())
    at_10 = curve.values[np.where(curve.ns == 10)[0][0]]
    assert at_10 <= 1e-6
    assert curve.tends_to_zero


def test_tail_curve_cauchy_limit():
    curve = ml.tail_mass_curve(ml.cauchy())
    at_1e3 = curve.values[np.where(curve.ns == 1000)[0][0]]
    # oracle: n (1 - (2/pi) arctan n) -> 2/pi
    exact = 1000 * (1 - (2 / math.pi) * math.atan(1000))
    assert at_1e3 == pytest.approx(exact, abs=1e-9)
    assert at_1e3 == pytest.approx(2 / math.pi, abs=0.01)
    assert not curve.tends_to_zero


def test_tail_curve_comb_ex2_oscillates_in_band():
    # P(|X| > n) = 2^-m for 2^m <= n < 2^(m+1), so n P(|X| > n) lives in [1, 2)
    curve = ml.tail_mass_curve(ml.comb_ex2())
    inner = curve.values[curve.ns >= 2]
    assert np.all(inner >= 1.0 - 1e-12)
    assert np.all(inner < 2.0)
    assert not curve.tends_to_zero


def test_tail_schedule_validation():
    with pytest.raises(ValueError):
        ml.tail_mass_curve(ml.gaussian(), n_schedule=[10, 5])


# ---------------------------------------------------------------------------
# Mean ladder
# ---------------------------------------------------------------------------

def test_ladder_gaussian_all_rungs_equal_mu():
    lad = ml.mean_ladder(ml.gaussian(2.5, 1.0))
    assert lad.ordinary_kind == "finite"
    assert lad.ordinary_value == pytest.approx(2.5, abs=1e-6)
    assert lad.weak_value == pytest.approx(2.5, abs=1e-6)
    assert lad.doubly_weak_value == pytest.approx(2.5, abs=1e-6)


def test_ladder_cauchy_only_doubly_weak():
    lad = ml.mean_ladder(ml.cauchy())
    assert lad.ordinary_kind == "none"
    assert lad.weak_value is None
    assert lad.doubly_weak_value == pytest.approx(0.0, abs=1e-6)
    assert not lad.tail.tends_to_zero


def test_ladder_comb_ex2_all_rungs_absent():
    lad = ml.mean_ladder(ml.comb_ex2())
    assert lad.ordinary_kind == "none"
    assert lad.weak_value is None          # tail curve stays in [1, 2)
    assert lad.doubly_weak_value is None   # case II, not III_finite
    assert lad.taxonomy_case == "II"


def test_ladder_power_tail_has_no_ordinary_mean():
    # both one-sided moments diverge (x * pdf ~ x^(1-a) with a < 2), so the
    # ordinary mean is undefined even though the windowed limit is +inf
    lad = ml.mean_ladder(ml.power_tail(1.5, 1.8))
    assert lad.ordinary_kind == "none"
    assert lad.taxonomy_case == "III_plus_inf"


def test_ladder_shift_equivariance():
    base = ml.mean_ladder(ml.gaussian(1.0, 1.0))
    shifted = ml.mean_ladder(ml.gaussian(1.0, 1.0).shift(2.0))
    assert shifted.ordinary_value == pytest.approx(base.ordinary_value + 2.0,
                                                   abs=2e-6)


def test_ladder_invariant_violation_raises():
    tail = ml.tail_mass_curve(ml.gaussian())
    assert tail.tends_to_zero
    with pytest.raises(ValueError):
        ml.MeanLadder(ordinary_kind="finite", ordinary_value=1.0,
                      weak_value=None, doubly_weak_value=None,
                      taxonomy_case="III_finite", tail=tail,
                      horizon=1e5, tolerance=1e-6)


# ---------------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------------

def test_window_multiplier_reproduces_truncation_bitwise():
    comb = ml.comb_ex1()
    scan = ml.limit_scan(comb, 0.0, SCHED, probe_atoms=False)
    ser = ml.multiplier_mean(comb, ml.WindowMultiplier(0.0), 1.0 / scan.radii)
    assert np.array_equal(ser.values, scan.values)


def test_window_multiplier_on_cauchy_agrees_with_centered_limit():
    for c in (-2.0, 0.0, 1.0, 3.0):
        ser = ml.multiplier_mean(ml.cauchy(), ml.WindowMultiplier(c))
        assert ser.verdict.kind == "converged"
        assert abs(ser.verdict.value) <= 1e-6


def test_exp_tilt_limit_tracks_the_tilt_parameter():
    for c in (-2.0, 0.0, 1.0, 3.0):
        ser = ml.multiplier_mean(ml.cauchy(), ml.ExpTiltMultiplier(c))
        assert ser.verdict.kind == "converged"
        assert ser.verdict.value == pytest.approx(c, abs=1e-2)


def test_exp_tilt_single_lambda_oracle():
    # m(lam, 1) = 1 - int_0^inf lam e^(-lam u) / (1 + u^2) du
    lam = 1e-3
    fam = ml.ExpTiltMultiplier(1.0)
    got = fam.regularized_mean(ml.cauchy(), lam)
    corr, _ = quad(lambda u: lam * math.exp(-lam * u) / (1 + u * u), 0, np.inf,
                   epsabs=1e-12, limit=500)
    assert got == pytest.approx(1.0 - corr, abs=1e-8)
    assert got == pytest.approx(1.0, abs=2e-3)


def test_exp_tilt_weights_tend_pointwise_to_one():
    fam = ml.ExpTiltMultiplier(3.0)
    xs = np.array([-27.0, -3.2, -0.5, 0.0, 0.4, 5.0, 111.0])
    for lam in (1e-2, 1e-4, 1e-6):
        w = fam.weight(xs, lam)
        assert np.all(np.abs(w - 1.0) <= 60 * lam * (np.abs(xs) + 1))
    assert np.allclose(fam.weight(xs, 1e-9), 1.0, atol=1e-5)


def test_exp_tilt_works_on_atomic_measures():
    ser = ml.multiplier_mean(ml.comb_ex2(), ml.ExpTiltMultiplier(0.0),
                             np.geomspace(1e-1, 1e-3, 17))
    assert np.all(np.isfinite(ser.values))


def test_multiplier_rejects_bad_schedules():
    with pytest.raises(ValueError):
        ml.multiplier_mean(ml.cauchy(), ml.WindowMultiplier(0.0), [1e-2, 1e-2])
    with pytest.raises(ValueError):
        ml.ExpTiltMultiplier(0.0).regularized_mean(ml.cauchy(), -1.0)


def test_exp_tilt_on_wrapped_density():
    # shift pushes the damping asymmetry along: for shifted cauchy the
    # window multiplier tracks plain truncation of the shifted law
    shifted = ml.cauchy().shift(2.0)
    ser = ml.multiplier_mean(shifted, ml.ExpTiltMultiplier(0.0),
                             np.geomspace(1e-2, 1e-3, 17))
    assert np.all(np.isfinite(ser.values))
    wser = ml.multiplier_mean(shifted, ml.WindowMultiplier(2.0))
    assert wser.verdict.kind == "converged"
    assert wser.verdict.value == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize("build,case,threshold", [
    (lambda: ml.comb_ex4().shift(4.0), "IV", 3.0),
    (lambda: ml.comb_ex5().shift(4.0), "I", None),
    (lambda: ml.comb_ex4().negate().shift(-4.0), "V", -3.0),
])
def test_taxonomy_of_combs_shifted_toward_the_diverging_side(build, case, threshold):
    # Block minima equal up to rounding must not read as rising or falling:
    # each block-to-block step has to clear the tolerance.
    report = ml.classify_taxonomy(build())
    assert report.case == case
    assert report.c_threshold == threshold


def test_schedule_rejects_a_nonfinite_horizon():
    for kw in ({"m0": 1.1, "ratio": 1.5, "count": 2000},
               {"m0": math.inf}, {"m0": 0.5, "ratio": 2.0, "count": 1026}):
        with pytest.raises(ValueError):
            ml.TruncationSchedule(**kw)
    assert math.isfinite(ml.TruncationSchedule(m0=1.0, ratio=2.0, count=1000).horizon)


# ---------------------------------------------------------------------------
# Scan reuse and non-finite evidence
# ---------------------------------------------------------------------------

def test_taxonomy_keeps_the_scan_behind_each_verdict():
    report = ml.classify_taxonomy(ml.comb_ex4())
    assert sorted(report.series) == sorted(ml.DEFAULT_C_GRID)
    for c, series in report.series.items():
        assert series.center == c
        assert ml.classify_series(series) == report.per_center[c]


def test_ladder_scans_each_window_once(scan_counts):
    lad = ml.mean_ladder(ml.cauchy())
    # the grid's centers plus the two one-sided scans, and one tail curve
    assert scan_counts == {"window_stats": len(ml.DEFAULT_C_GRID) + 2,
                           "tail_probability": 1}
    assert lad.tail.ns[-1] == 1e6


def test_nonfinite_values_classify_as_undetermined():
    values = np.linspace(0.0, 1.0, 40)
    values[-3] = np.nan
    verdict = _classify_values(values, POLICY, horizon=1e3)
    assert verdict.kind == "undetermined"
    assert verdict.spread is None and verdict.conv_tol is None
    values[-3] = np.inf
    assert _classify_values(values, POLICY, monotone="increasing").kind == "undetermined"


def _ladder_and_taxonomy(p):
    comb = ml.integer_power_comb(p)
    return ml.mean_ladder(comb), ml.classify_taxonomy(comb)


def test_nan_partial_means_never_reach_a_verdict():
    # The Hurwitz zeta moments of integer_power_comb are NaN for p <= 2.
    # At p < 2 scipy returns them silently; at p = 2 they come from inf - inf.
    results = [_ladder_and_taxonomy(1.8)]
    with pytest.warns(RuntimeWarning):
        results.append(_ladder_and_taxonomy(2.0))
    for lad, report in results:
        assert lad.ordinary_kind == "undetermined"
        assert report.case == "Undetermined"
        for verdict in report.per_center.values():
            json.dumps(dataclasses.asdict(verdict), allow_nan=False)
