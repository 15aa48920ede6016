"""Wrong answers the library gives today, one row each.

Each row asserts what theory says and is marked strict xfail, naming the
ROADMAP item expected to fix it, with ``raises`` set to the failure the
wrong answer produces, so an unrelated crash does not count.  A change that
fixes a row turns its xfail into a failing XPASS; it then drops the mark.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import meanlab as ml


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: growth like lam^(a-2) along the lambda "
                          "schedule is read as bounded oscillation")
def test_power_tail_exp_tilt_diverges():
    # power_tail(1.2, 1.9) has no mean; its right tail dominates, and the
    # regularized means grow like lam^(a - 2) (79.6, 93.0, 108.6 at the end)
    series = ml.multiplier_mean(ml.power_tail(1.2, 1.9), ml.ExpTiltMultiplier(0.0))
    assert series.verdict.kind == "diverges_plus"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a series still rising to its limit is "
                          "read as bounded oscillation")
def test_narrow_off_centre_cauchy_exp_tilt_converges():
    # about 100 e^(-100 lam): the means rise monotonically from 36.8 to 99.0
    series = ml.multiplier_mean(ml.cauchy(100.0, 1e-3), ml.ExpTiltMultiplier(0.0))
    assert series.verdict.kind == "converged"
    assert series.verdict.value == pytest.approx(100.0, rel=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a series still rising to a negative limit is "
                          "read as bounded oscillation")
def test_negative_mean_gaussian_exp_tilt_converges():
    # the 25 means rise monotonically to the mean -1 (the last four -0.99825,
    # -0.99855, -0.99881, -0.99901); today both read oscillates_bounded, spread
    # 2.8e-3 against a tolerance of 1e-3, while gaussian(1, 2) converges to 0.9996
    for measure in (ml.gaussian(-1.0, 2.0), ml.gaussian(1.0, 2.0).negate()):
        series = ml.multiplier_mean(measure, ml.ExpTiltMultiplier(0.5))
        assert series.verdict.kind in ("converged", "undetermined")
        if series.verdict.kind == "converged":
            assert series.verdict.value == pytest.approx(-1.0, rel=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the windows at the horizon hold almost none "
                          "of the mass, and the still-moving partial means are "
                          "read as bounded oscillation")
def test_far_shifted_cauchy_has_a_common_value():
    # every center's windows converge to the location 1e12; today: case I
    report = ml.classify_taxonomy(ml.cauchy().shift(1e12))
    assert report.case in ("III_finite", "Undetermined")
    if report.case == "III_finite":
        assert report.common_value == pytest.approx(1e12, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: slow convergence at rate M^(2-p) is "
                          "read as divergence")
@pytest.mark.parametrize("p", [2.3, 2.5])
def test_integer_power_comb_mean_is_finite_past_two(p):
    # mean zeta(p - 1) / zeta(p); today: plus_inf
    from scipy.special import zeta
    ladder = ml.mean_ladder(ml.integer_power_comb(p))
    assert ladder.ordinary_kind in ("finite", "undetermined")
    if ladder.ordinary_kind == "finite":
        assert ladder.ordinary_value == pytest.approx(zeta(p - 1) / zeta(p), rel=1e-3)


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 4: the Hurwitz-zeta moment is inf - inf "
                          "at p = 2")
def test_integer_power_comb_at_two_warns_nothing():
    # the mean is +inf and n P(X > n) -> 1 / zeta(2), so there is no weak mean;
    # today the window moments warn (an error under the test filters)
    ladder = ml.mean_ladder(ml.integer_power_comb(2.0))
    assert ladder.ordinary_kind in ("plus_inf", "undetermined")
    assert ladder.weak_value is None


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 3: the tail curve's horizon of 1e6 stops "
                          "short of a Gaussian centred at 1e6")
def test_far_gaussian_ladder_gives_a_verdict():
    # mean 1e6; today the ladder's own consistency check raises
    ladder = ml.mean_ladder(ml.gaussian(1e6, 1.0))
    assert ladder.ordinary_kind in ("finite", "undetermined")
    if ladder.ordinary_kind == "finite":
        assert ladder.ordinary_value == pytest.approx(1e6, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a window mass near 1 at the horizon "
                          "is taken to mean nothing is left")
def test_far_atom_is_not_silently_dropped():
    # mass 1e-11 at 1e12 carries the whole mean, 10; today: finite 0.0
    ladder = ml.mean_ladder(ml.finite_comb([ml.Atom(0.0, 1 - 1e-11), ml.Atom(1e12, 1e-11)]))
    assert ladder.ordinary_kind in ("finite", "undetermined")
    if ladder.ordinary_kind == "finite":
        assert ladder.ordinary_value == pytest.approx(10.0, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a monotone series still converging is "
                          "read as oscillation")
def test_squares_comb_has_a_common_value():
    # atoms at n^2 with weight n^-4 / zeta(4), mean 15 / pi^2; more atoms than
    # the probe cap lie within reach, so the scans take no probes; today: case
    # I, every center oscillates_bounded
    z4 = math.pi ** 4 / 90.0
    comb = ml.AtomicComb("squares", lambda n: ((float(n * n),), (float(n) ** -4 / z4,)),
                         tail_mass_bound=lambda n: (max(n, 1) ** -3.0 / 3.0) / z4 if n else 1.0,
                         location_floor=lambda n: float((n + 1) ** 2))
    report = ml.classify_taxonomy(comb)
    assert report.case in ("III_finite", "Undetermined")
    if report.case == "III_finite":
        assert report.common_value == pytest.approx(15.0 / math.pi ** 2, rel=1e-4)


@pytest.mark.xfail(strict=True, raises=ml.MeasureError,
                   reason="ROADMAP item 4: a user density's construction check "
                          "runs one quad with no mass check")
def test_off_centre_user_density_is_accepted():
    # N(1e4, 1); today: "density integrates to 0.0, not 1"
    m = ml.DensityMeasure("bump", lambda x: math.exp(-0.5 * (x - 1e4) ** 2)
                          / math.sqrt(2.0 * math.pi))
    mass, moment = m.window_stats(9e3, 1.1e4)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert moment == pytest.approx(1e4, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 4: a user density's wide windows run one "
                          "quad that misses the mass near 0")
def test_centred_user_density_has_a_ladder():
    # the standard logistic law: mean 0 and P(|X| > n) = 2 / (1 + e^n); today
    # tail_probability(1e5) reads 1.0, the taxonomy says III_finite, and the
    # ladder raises "finite ordinary mean without matching weak mean"
    m = ml.DensityMeasure("logistic", lambda x: math.exp(-abs(x)) / (1.0 + math.exp(-abs(x))) ** 2)
    ladder = ml.mean_ladder(m)
    assert ladder.ordinary_kind == "finite"
    for value in (ladder.ordinary_value, ladder.weak_value, ladder.doubly_weak_value):
        assert value == pytest.approx(0.0, abs=1e-6)
    assert m.tail_probability(1e5) <= 1e-12


@pytest.mark.xfail(strict=True, raises=ml.MeasureError,
                   reason="ROADMAP item 9: the block sampler's tail bound never "
                          "falls below its cutoff")
def test_integer_power_comb_can_be_sampled():
    # today: "tail bound never fell below the sampling cutoff 1e-12"
    draws = ml.build_sampler(ml.integer_power_comb(3.0), seed=0).draw(1000)
    assert np.all(draws >= 1) and np.array_equal(draws, np.round(draws))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: power_tail's tail is 0.5 minus a half-line "
                          "mass, which cancels once that mass is within ulps of 0.5, "
                          "where an accurate tail is needed; item 3's horizon capture "
                          "reads M * P(|X| > M)")
def test_power_tail_tail_probability_is_accurate_far_out():
    # P(X > t) = t^(1-e) / (coef (e - 1)) + O(t^(1-2e)) on each side;
    # today 0.0 at t = 1e60, the clipped value of -3.8e-15 (abs=0: pytest's
    # default abs=1e-12 would accept 0.0 for a want near 1e-30)
    a, b = 1.5, 1.8
    m = ml.power_tail(a, b)
    t = 10.0 ** np.arange(1.0, 309.0)
    assert np.all(m.tail_probability(t) >= 0.0)
    assert m.tail_probability(math.inf) == 0.0

    def coef(e):
        return (2.0 * (math.pi / e) / math.sin(math.pi / e)) ** e

    want = sum(1e60 ** (1.0 - e) / (coef(e) * (e - 1.0)) for e in (a, b))
    assert m.tail_probability(1e60) == pytest.approx(want, rel=1e-9, abs=0)


def test_one_law_built_two_ways_has_one_tail():
    # cauchy().shift(0.5) is the law cauchy(0.5, 1), and the shift maps the
    # complement of [-t, t] to cauchy's own closed form, so both read one tail;
    # 1 minus a window mass would read 4.44e-16 against 6.366e-16 at t = 1e15
    t = 1e15
    with mp.workdps(30):
        want = float((mp.atan(1 / (t - mp.mpf(0.5))) + mp.atan(1 / (t + mp.mpf(0.5)))) / mp.pi)
    assert ml.cauchy(0.5, 1.0).tail_probability(t) == pytest.approx(want, rel=1e-12, abs=0)
    assert ml.cauchy().shift(0.5).tail_probability(t) == pytest.approx(want, rel=1e-9, abs=0)
    assert ml.cauchy().shift(0.5).tail_probability(t) == ml.cauchy(0.5, 1.0).tail_probability(t)
    shifted = ml.cauchy().shift(1e6).tail_probability(1e12)
    assert shifted == pytest.approx(ml.cauchy(1e6, 1.0).tail_probability(1e12), rel=1e-12, abs=0)
