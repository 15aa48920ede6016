"""Partial-mean scans, the five-case taxonomy, ladders, and multipliers."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import meanlab as ml
from meanlab import cli, genmean
from meanlab.genmean import _classify_rows

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


@pytest.mark.parametrize("build,schedule", [
    (ml.comb_ex2, ml.TruncationSchedule(1.0, 2.0, 40)),  # radii 2^k are atoms
    (ml.comb_ex5, ml.TruncationSchedule(1.0, 3.0, 30)),  # 3^28 is 1/28 short of an atom
])
def test_scan_keeps_the_schedule_radii_and_closed_windows(build, schedule):
    # A window [c - M, c + M] is closed and counts an atom on its boundary,
    # so the scan samples the schedule's own radii even where they are atoms.
    m = build()
    series = ml.limit_scan(m, 0.0, schedule)
    assert series.radii[~series.is_probe].tobytes() == schedule.radii().tobytes()
    locs, weights = m.atom_arrays(schedule.horizon)
    scale = math.fsum(np.abs(weights * locs))
    for M, mass, value in zip(series.radii, series.masses, series.values):
        inside = np.abs(locs) <= M
        assert mass == pytest.approx(math.fsum(weights[inside]), abs=1e-12)
        assert value == pytest.approx(math.fsum(weights[inside] * locs[inside]),
                                      abs=1e-12 * scale + 1e-15)


# ---------------------------------------------------------------------------
# Verdicts of one series
# ---------------------------------------------------------------------------

def test_classify_gaussian_converges_to_its_mean():
    v = ml.classify_taxonomy(ml.gaussian(2, 1)).per_center[0.0]
    assert v.kind == "converged"
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_classify_comb_ex1_oscillates_bounded():
    v = ml.classify_taxonomy(ml.comb_ex1()).per_center[0.0]
    assert v.kind == "oscillates_bounded"
    assert v.liminf_est == pytest.approx(-1.0, abs=1e-9)
    assert v.limsup_est == pytest.approx(0.0, abs=1e-9)


def test_classify_comb_ex4_diverges_at_positive_center():
    v = ml.classify_taxonomy(ml.comb_ex4()).per_center[1.0]
    assert v.kind == "diverges_plus"


@pytest.mark.parametrize("field,value", [
    ("window", 0), ("window", 2.5), ("window", True), ("max_probes", -1),
    ("max_probes", "400"), ("conv_scale", -1.0), ("conv_scale", math.nan),
    ("div_threshold", math.inf), ("div_threshold", 0.0), ("tail_tol", math.nan),
])
def test_policy_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=f"policy {field} must be"):
        ml.VerdictPolicy(**{field: value})


def test_classify_rejects_short_series():
    vals = np.zeros(7)
    with pytest.raises(ValueError):
        _classify_rows([vals], POLICY)


def test_classify_undetermined_on_isolated_spike():
    vals = np.zeros(24)
    vals[20] = 1.0
    assert _classify_rows([vals], POLICY)[0].kind == "undetermined"


def _shaped_series(shape, n):
    k = np.arange(n, dtype=float)
    if shape == "constant":
        return np.full(n, 2.5)
    if shape == "rising":
        return 10.0 ** (k / 2)
    if shape == "alternating":
        return np.where(k % 2 == 0, 1.0, -1.0)
    spike = np.zeros(n)
    spike[n // 2] = 1e5
    return spike


# Verdicts at the lengths where the first of the three W-blocks is shorter
# than W (2W <= n < 3W) or just full (n = 3W), pinned bitwise:
# (shape, W, n, kind, value, liminf_est, limsup_est, spread, conv_tol).
_SHORT_SERIES_VERDICTS = [
    ("constant", 1, 2, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 1, 3, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 3, 6, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 3, 7, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 3, 8, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 3, 9, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 8, 16, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 8, 17, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 8, 23, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("constant", 8, 24, "converged", 2.5, None, None, 0.0, 2.4999999999999998e-06),
    ("rising", 1, 2, "converged", 3.1622776601683795, None, None, 0.0, 3.162277660168379e-06),
    ("rising", 1, 3, "converged", 10.0, None, None, 0.0, 9.999999999999999e-06),
    ("rising", 3, 6, "undetermined", None, None, None, 284.60498941515414, 9.999999999999999e-05),
    ("rising", 3, 7, "undetermined", None, None, None, 900.0, 0.0003162277660168379),
    ("rising", 3, 8, "oscillates_bounded", None, 1.0, 3162.2776601683795, 2846.0498941515416, 0.001),
    ("rising", 3, 9, "oscillates_bounded", None, 1.0, 10000.0, 9000.0, 0.0031622776601683794),
    ("rising", 8, 16, "undetermined", None, None, None, 31612776.60168379, 0.6581138830084189),
    ("rising", 8, 17, "diverges_plus", None, 31622.776601683792, None, 99968377.22339831, 2.0811388300841895),
    ("rising", 8, 23, "diverges_plus", None, 31622776.60168379, None, 99968377223.39832, 2081.1388300841895),
    ("rising", 8, 24, "diverges_plus", None, 100000000.0, None, 316127766016.83795, 6581.138830084189),
    ("alternating", 1, 2, "converged", -1.0, None, None, 0.0, 1e-06),
    ("alternating", 1, 3, "converged", 1.0, None, None, 0.0, 1e-06),
    ("alternating", 3, 6, "undetermined", None, None, None, 2.0, 1e-06),
    ("alternating", 3, 7, "undetermined", None, None, None, 2.0, 1e-06),
    ("alternating", 3, 8, "oscillates_bounded", None, -1.0, 1.0, 2.0, 1e-06),
    ("alternating", 3, 9, "oscillates_bounded", None, -1.0, 1.0, 2.0, 1e-06),
    ("alternating", 8, 16, "undetermined", None, None, None, 2.0, 1e-06),
    ("alternating", 8, 17, "undetermined", None, None, None, 2.0, 1e-06),
    ("alternating", 8, 23, "oscillates_bounded", None, -1.0, 1.0, 2.0, 1e-06),
    ("alternating", 8, 24, "oscillates_bounded", None, -1.0, 1.0, 2.0, 1e-06),
    ("spike", 1, 2, "converged", 100000.0, None, None, 0.0, 0.09999999999999999),
    ("spike", 1, 3, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 3, 6, "undetermined", None, None, None, 100000.0, 1e-06),
    ("spike", 3, 7, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 3, 8, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 3, 9, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 8, 16, "undetermined", None, None, None, 100000.0, 1e-06),
    ("spike", 8, 17, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 8, 23, "converged", 0.0, None, None, 0.0, 1e-06),
    ("spike", 8, 24, "converged", 0.0, None, None, 0.0, 1e-06),
]


@pytest.mark.parametrize("shape,W,n,kind,value,liminf,limsup,spread,tol",
                         _SHORT_SERIES_VERDICTS)
def test_block_rule_verdicts_near_two_and_three_windows(shape, W, n, kind, value,
                                                       liminf, limsup, spread, tol):
    verdict, = _classify_rows([_shaped_series(shape, n)], ml.VerdictPolicy(window=W),
                              horizon=1e3)
    assert verdict == ml.LimitVerdict(kind, value, liminf, limsup, spread, tol,
                                      window=W, horizon=1e3)


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
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite centers"):
            ml.classify_taxonomy(ml.cauchy(), c_grid=(bad, -1.0, 0.0, 1.0, 2.0))


def test_taxonomy_counts_a_repeated_center_once():
    # -0.0 is the center 0.0, so this grid has 3 distinct centers
    with pytest.raises(ValueError, match=">= 5 points"):
        ml.classify_taxonomy(ml.cauchy(), c_grid=(-1.0, 0.0, 0.0, -0.0, 1.0))
    rep = ml.classify_taxonomy(ml.comb_ex2(), c_grid=(-2.0, -1.0, 0.0, 0.0, 1.0, 2.0))
    assert (rep.case, rep.c_star) == ("II", 0.0)
    assert sorted(rep.per_center) == [-2.0, -1.0, 0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Window decomposition identity (split at shifted boundaries)
# ---------------------------------------------------------------------------

def _decomposition_check(measure, c1, c2, M, exact_tol):
    def W(lo, hi):
        return measure.window_stats(lo, hi)[1]

    # [c2 - M, c2 + M] = [c1 - M, c1 + M] + (c1 + M, c2 + M] - [c1 - M, c2 - M),
    # each half-open window a closed one minus the point window at its open end
    lhs = W(c2 - M, c2 + M)
    base = W(c1 - M, c1 + M)
    upper = W(c1 + M, c2 + M) - W(c1 + M, c1 + M)
    lower = W(c1 - M, c2 - M) - W(c2 - M, c2 - M)
    if M > max(abs(c1), abs(c2)):
        assert upper >= 0.0
        assert -lower >= 0.0
    assert lhs == pytest.approx(base + upper - lower, abs=exact_tol)


@pytest.mark.parametrize("c1,c2", [(-2.0, 1.0), (0.0, 3.0), (-4.5, -0.5)])
def test_decomposition_identity_exact_for_dyadic_combs(c1, c2):
    # dyadic atom contributions are exactly representable, so the identity
    # holds with zero residual.  The extra radii put a boundary on an atom:
    # at (-2, 1), M = 3 puts c2 - M on comb_ex2's atom -2, and 6, 10, 18, 34
    # put c1 + M on its atoms 4, 8, 16, 32, so a subtracted point window
    # holds that atom.
    for measure in (ml.comb_ex1(), ml.comb_ex2()):
        for M in [*ml.TruncationSchedule(count=30).radii(), 3.0, 6.0, 10.0, 18.0, 34.0]:
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
                      taxonomy=ml.TaxonomyReport("III_finite", {}, {}), tail=tail,
                      horizon=1e5, tolerance=1e-6)


_EXAMPLE_MEASURES = {name: doc["measure"] for name, doc in cli._example_documents().items()
                     if name.startswith("measure_")}


@pytest.mark.parametrize("name", sorted(_EXAMPLE_MEASURES))
def test_ladder_keeps_the_taxonomy_report_it_builds(name):
    m = ml.measure_from_document(_EXAMPLE_MEASURES[name])
    ladder, report = ml.mean_ladder(m), ml.classify_taxonomy(m)
    got = ladder.taxonomy
    assert ladder.taxonomy_case == got.case == report.case
    assert (got.common_value, got.c_star, got.c_threshold) == \
        (report.common_value, report.c_star, report.c_threshold)
    assert {c: repr(v) for c, v in got.per_center.items()} == \
        {c: repr(v) for c, v in report.per_center.items()}


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
    got = fam.regularized_means(ml.cauchy(), [lam])[0]
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
        ml.ExpTiltMultiplier(0.0).regularized_means(ml.cauchy(), [-1.0])


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


def test_atoms_crossing_together_are_probed_once_in_an_affine_image():
    # The shift by 0.37 is inexact, so the crossing radii of each pair of
    # atoms -2^k, 2^k differ by an ulp; the scan counts each pair once.
    base = ml.limit_scan(ml.comb_ex2(), 0.0)
    image = ml.limit_scan(ml.comb_ex2().shift(0.37), 0.37)
    assert np.array_equal(image.radii, base.radii)
    assert np.array_equal(image.is_probe, base.is_probe)


@pytest.mark.parametrize("shift, case", [(-50.0, "III_plus_inf"), (50.0, "I")])
@pytest.mark.parametrize("build", [ml.comb_ex4, ml.comb_ex5], ids=["comb_ex4", "comb_ex5"])
def test_far_shifted_triadic_comb_reads_one_side_of_its_threshold(build, shift, case):
    # A shift moves the threshold center (-0.5 for comb_ex4, 0.5 for comb_ex5)
    # with it, off the default grid, which then sees one side of it only:
    # every center diverges at -50, and none does at +50.
    assert ml.classify_taxonomy(build().shift(shift)).case == case


def test_schedule_refuses_a_fractional_count():
    # count=2.5 used to scan 3 radii and report the horizon of 2.5 of them
    with pytest.raises(ValueError, match="schedule count"):
        ml.TruncationSchedule(count=2.5)


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
        assert _classify_rows([series.values], POLICY, series.horizon) == [report.per_center[c]]


def test_ladder_scans_each_window_once(scan_counts):
    lad = ml.mean_ladder(ml.cauchy())
    # the grid's centers and the two one-sided scans in one call; one tail curve
    assert scan_counts == {"window_stats": 1, "tail_probability": 1}
    assert lad.tail.ns[-1] == 1e6


def _logistic(x):
    e = math.exp(-abs(x))
    return e / (1.0 + e) ** 2


# Measures without atoms: the closed forms, a user density on the whole line
# (one quadrature per window) and one on a bounded support, where windows
# that miss the support read zero.
_DENSITIES = {
    "gaussian": lambda: ml.gaussian(0.5, 2.0),
    "cauchy": lambda: ml.cauchy(-0.25, 1.5),
    "power_tail": lambda: ml.power_tail(1.3, 1.6),
    "user_quad": lambda: ml.DensityMeasure("logistic", _logistic),
    "bounded": lambda: ml.DensityMeasure("triangle", lambda x: max(0.0, 1.0 - abs(x)),
                                         support=(-1.0, 1.0)),
}
_WRAPPERS = {
    "plain": lambda m: m,
    "shift": lambda m: m.shift(0.37),
    "scale": lambda m: m.scale(3.5),
    "negate": lambda m: m.negate(),
    "affine": lambda m: ml.measures.Affine(m, -1.25, -0.4),
}
# a 9-point grid as ``--c-grid`` passes it: floats parsed from the text
_GRID_9 = tuple(float(v) for v in "-8,-3,-1.5,-0.5,0,0.5,1.5,3,8".split(","))


def _lone_scan(m, c, side="both"):
    """The scan of one row as one window_stats call on 1-d endpoints."""
    radii = SCHED.radii()
    masses, values = m.window_stats(c if side == "plus" else c - radii,
                                    c if side == "minus" else c + radii)
    return ml.PartialMeanSeries(c, radii, values, masses, np.zeros(len(radii), bool),
                                SCHED.horizon)


def _same_series(got, want):
    assert got.center == want.center and got.horizon == want.horizon
    for name in ("radii", "values", "masses", "is_probe"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("wrap", _WRAPPERS)
@pytest.mark.parametrize("family", _DENSITIES)
def test_density_scans_in_one_call_are_bitwise_the_lone_scans(family, wrap):
    m = _WRAPPERS[wrap](_DENSITIES[family]())
    assert not m.is_atomic
    for grid in (ml.DEFAULT_C_GRID, _GRID_9):
        report = ml.classify_taxonomy(m, grid)
        assert sorted(report.series) == sorted(grid)
        for c in grid:
            _same_series(report.series[c], ml.limit_scan(m, c))
            _same_series(report.series[c], _lone_scan(m, c))
    both = genmean._scan(m, [(0.0, "plus"), (0.0, "minus")], SCHED, POLICY)
    for series, side, mode in zip(both, ("plus", "minus"), ("increasing", "decreasing")):
        alone = _lone_scan(m, 0.0, side)
        _same_series(series, alone)
        assert (_classify_rows([series.values], POLICY, SCHED.horizon, [mode])
                == _classify_rows([alone.values], POLICY, SCHED.horizon, [mode]))


# Atomic measures: the combs under every wrapper of _WRAPPERS, plus measures
# whose scans thin their probes (5,000 samples), refuse them (the dense
# integer combs) or come from the spectral side.
_ATOMIC = {
    "comb_ex1": ml.comb_ex1,
    "comb_ex2": ml.comb_ex2,
    "comb_ex4": ml.comb_ex4,
    "comb_ex5": ml.comb_ex5,
}
_ATOMIC_PLAIN = {
    "empirical_50": lambda: ml.EmpiricalMeasure(np.random.default_rng(4).standard_cauchy(50)),
    "empirical_5000": lambda: ml.EmpiricalMeasure(
        np.random.default_rng(5).standard_cauchy(5000)),
    "integer_power_2.5": lambda: ml.integer_power_comb(2.5),
    "integer_power_4": lambda: ml.integer_power_comb(4.0),
    "induced": lambda: ml.induced_measure(np.diag([-3.0, -0.5, 1.0, 2.5, 40.0]),
                                          np.array([0.3, 0.2, 0.5, 0.6, 0.5]) / math.sqrt(0.99)),
    "bridge_dyadic": lambda: ml.build_bridge("dyadic_symmetric").comb,
    "bridge_power": lambda: ml.build_bridge("power_law_integer", p=3.0).comb,
}
_ATOMIC_CASES = ([(f, w) for f in _ATOMIC for w in _WRAPPERS]
                 + [(f, "plain") for f in _ATOMIC_PLAIN])


@pytest.mark.parametrize("family, wrap", _ATOMIC_CASES,
                         ids=[f"{f}-{w}" for f, w in _ATOMIC_CASES])
def test_atomic_rows_in_one_call_are_bitwise_the_lone_scans(family, wrap):
    m = _WRAPPERS[wrap]({**_ATOMIC, **_ATOMIC_PLAIN}[family]())
    assert m.is_atomic
    rows = [(0.0, "plus"), (0.0, "minus")] + [(c, "both") for c in ml.DEFAULT_C_GRID]
    batched = genmean._scan(m, rows, SCHED, POLICY)  # the ladder's one call
    report = ml.classify_taxonomy(m)
    for series, (c, side) in zip(batched, rows):
        alone = genmean._scan(m, [(c, side)], SCHED, POLICY)[0]
        _same_series(series, alone)
        if side == "both":
            _same_series(series, ml.limit_scan(m, c))
            _same_series(report.series[c], alone)
        # a 1-d request on the lone scan's radii is answered as before
        masses, values = m.window_stats(c if side == "plus" else c - alone.radii,
                                        c if side == "minus" else c + alone.radii)
        assert values.tobytes() == alone.values.tobytes()
        assert masses.tobytes() == alone.masses.tobytes()
    probes = [int(s.is_probe.sum()) for s in batched]
    if family.startswith("integer_power") or family == "bridge_power":
        assert probes == [0] * len(rows)  # more atoms than _PROBE_ATOM_CAP
    elif family == "empirical_5000":
        assert max(probes) == POLICY.max_probes  # thinned
    else:
        assert max(probes) > 0


# Dense combs hold more than _PROBE_ATOM_CAP atoms in reach, so their atom
# lookup is refused and they scan the schedule's radii alone.
_REFUSED = {
    **{f"integer_power_{p:g}": (lambda p=p: ml.integer_power_comb(p))
       for p in (1.5, 2.5, 3.3, 6.0)},
    "bridge_power": lambda: ml.build_bridge("power_law_integer", p=3.0).comb,
}


@pytest.mark.parametrize("family", _REFUSED)
def test_refused_probes_scan_the_schedule_without_a_probe_pass(family, monkeypatch):
    m = _REFUSED[family]()
    probe_passes = []
    monkeypatch.setattr(genmean, "_scan_radii", lambda *args: probe_passes.append(args))
    rows = [(0.0, "plus"), (0.0, "minus")] + [(c, "both") for c in ml.DEFAULT_C_GRID]
    batched = genmean._scan(m, rows, SCHED, POLICY)  # the ladder's one call
    for series, (c, side) in zip(batched, rows):
        _same_series(series, genmean._scan(m, [(c, side)], SCHED, POLICY, probe_atoms=False)[0])
        if side == "both":
            _same_series(series, ml.limit_scan(m, c, probe_atoms=False))
    ml.mean_ladder(m)
    assert probe_passes == []


def test_integer_power_ladder_evaluates_zeta_once_per_distinct_endpoint():
    m = ml.integer_power_comb(3.3)
    zeta, sizes = m._zeta, {}

    def spy(s, x):
        sizes.setdefault(s, []).append(np.size(x))
        return zeta(s, x)

    m._zeta = spy
    ml.mean_ladder(m)
    # 9 rows of 60 windows have 1,080 endpoints, a = 1 for every window
    # wider than its center; the tail curve's 36 thresholds come last
    assert sizes == {3.3: [388, 36], 2.3: [388]}


def test_nonfinite_values_classify_as_undetermined():
    values = np.linspace(0.0, 1.0, 40)
    values[-3] = np.nan
    verdict, = _classify_rows([values], POLICY, horizon=1e3)
    assert verdict.kind == "undetermined"
    assert verdict.spread is None and verdict.conv_tol is None
    values[-3] = np.inf
    assert _classify_rows([values], POLICY, monotone=["increasing"])[0].kind == "undetermined"


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
