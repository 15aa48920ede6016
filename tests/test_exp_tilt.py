"""The exponential-tilt multiplier: the split node rule and atoms, against closed forms.

The means of Cauchy and Gaussian laws are checked against closed forms
evaluated by mpmath at 40 digits.  The Cauchy oracle evaluates
Im[z e^(-lam z) E1(-lam z) - z (1 + k z) e^(lam z) E1(lam z)] / pi
+ c scale (z = loc + i scale, k = pi c lam) with mpmath's own E1; the
Gaussian oracle evaluates the completed-square half-line moments with
mpmath's normal cdf and pdf; the standard Cauchy is also checked against the
Abramowitz-Stegun form c (1 - lam f(lam)) with scipy's sici.  The library
evaluates neither closed form: every density, each plain ``cauchy(loc,
scale)`` and ``gaussian(mu, sigma)`` and each affine image included, goes
through ``measures._split_rule``: the line split at 0, at the law's origin and
at its support ends, trapezoid nodes in log(|x - kink| / width) on the outer
half-lines and tanh-sinh nodes on finite pieces, each node an anchor plus an
offset that the law reads in its own frame, and a piece that fails its mass
or step-halving check bisected.
"Quadrature" below means that rule; it makes no ``scipy.integrate.quad``
call on a closed-form law or an affine image of one.  The power_tail means,
plain and under affine maps, are checked against 30-digit mpmath quadrature.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

import meanlab as ml
from meanlab import measures
from meanlab.genmean import _TILT_REACH

LAMS = (1e-2, 1e-3, 1e-4)


def _cauchy_oracle(loc, scale, c, lam):
    with mp.workdps(40):
        z, lam = mp.mpc(loc, scale), mp.mpf(lam)
        k = mp.pi * c * lam
        v = (z * mp.exp(-lam * z) * mp.e1(-lam * z)
             - z * (1 + k * z) * mp.exp(lam * z) * mp.e1(lam * z))
        return float(mp.im(v) / mp.pi + c * mp.mpf(scale))


def _gaussian_oracle(mu, sigma, c, lam):
    with mp.workdps(40):
        mu, sigma, lam = mp.mpf(mu), mp.mpf(sigma), mp.mpf(lam)

        def moments(mu0):  # int_0^inf e^(-lam x) x^j N(x; mu0, sigma^2) dx, j = 1, 2
            m = mu0 - lam * sigma ** 2
            grow = mp.exp(-lam * mu0 + (lam * sigma) ** 2 / 2)
            A, B = grow * mp.ncdf(m / sigma), grow * mp.npdf(m / sigma)
            return m * A + sigma * B, (m * m + sigma ** 2) * A + m * sigma * B

        p1, _ = moments(mu)
        q1, q2 = moments(-mu)
        return float(p1 - q1 + mp.pi * c * lam * q2)


def _counting_quad(monkeypatch):
    calls = []
    original = integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    return calls


class _Plain(ml.DensityMeasure):
    """The same law with no closed form: its pdf and window kernel only."""

    def __init__(self, measure, support=(-math.inf, math.inf)):
        # the law's own windows need no check that the density integrates to 1
        self.family, self.pdf, self.support, self._law = "plain", measure.pdf, support, measure

    def _stats_between(self, lo, hi):
        return self._law.window_stats(lo, hi)


# Each row is the law and the (loc, scale) of its oracle.  Every row, like
# every row of GAUSSIAN_CASES, takes the node rule; the last two read the
# standard Cauchy as a user density, at absolute positions.
CAUCHY_CASES = [
    (lambda: ml.cauchy(0.0, 1.0), (0.0, 1.0), 2.5),
    (lambda: ml.cauchy(2.0, 1.0), (2.0, 1.0), 0.0),
    (lambda: ml.cauchy(2.0, 1.0), (2.0, 1.0), 2.5),
    (lambda: ml.cauchy(-3.0, 1.0), (-3.0, 1.0), 2.5),
    (lambda: ml.cauchy(1e4, 1.0), (1e4, 1.0), 0.0),
    (lambda: ml.cauchy(1e4, 1.0), (1e4, 1.0), 2.5),
    (lambda: ml.cauchy(-1e4, 1.0), (-1e4, 1.0), 2.5),
    # narrow and off-centre: the old quadrature gave 5.2e-3 at lam = 1e-3
    (lambda: ml.cauchy(100.0, 1e-3), (100.0, 1e-3), 0.0),
    # law of -0.5 (X + 1) for X ~ Cauchy(0.5, 2): Cauchy(-0.75, 1)
    (lambda: ml.cauchy(0.5, 2.0).shift(1.0).scale(-0.5), (-0.75, 1.0), 2.5),
    (lambda: _Plain(ml.cauchy()), (0.0, 1.0), -2.0),
    (lambda: _Plain(ml.cauchy()), (0.0, 1.0), 3.0),
]


@pytest.mark.parametrize("build,law,c", CAUCHY_CASES)
def test_cauchy_closed_form_matches_mpmath(monkeypatch, build, law, c):
    calls = _counting_quad(monkeypatch)
    got = ml.ExpTiltMultiplier(c).regularized_means(build(), np.array(LAMS))
    assert calls == []
    want = [_cauchy_oracle(*law, c, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


GAUSSIAN_CASES = [
    (lambda: ml.gaussian(1.0, 2.0), (1.0, 2.0)),
    (lambda: ml.gaussian(100.0, 1.0), (100.0, 1.0)),
    (lambda: ml.gaussian(-50.0, 3.0), (-50.0, 3.0)),
    (lambda: ml.gaussian(1e4, 1e-2), (1e4, 1e-2)),
    (lambda: ml.gaussian(0.0, 1.0).shift(1.0), (1.0, 1.0)),
    (lambda: ml.gaussian(0.5, 2.0).shift(1.0).scale(-0.5), (-0.75, 1.0)),
    # narrow far out: the node rule once refused it as an affine image
    (lambda: ml.gaussian(-3e4, 1e-3), (-3e4, 1e-3)),
    (lambda: ml.gaussian().scale(1e-3).shift(-3e4), (-3e4, 1e-3)),
]


@pytest.mark.parametrize("c", [0.0, 2.5])
@pytest.mark.parametrize("build,law", GAUSSIAN_CASES)
def test_gaussian_closed_form_matches_mpmath(monkeypatch, build, law, c):
    calls = _counting_quad(monkeypatch)
    got = ml.ExpTiltMultiplier(c).regularized_means(build(), np.array(LAMS))
    assert calls == []
    want = [_gaussian_oracle(*law, c, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_standard_cauchy_is_the_abramowitz_stegun_form():
    # c (1 - lam f(lam)) with f(lam) = Ci(lam) sin(lam) - si(lam) cos(lam)
    lams = np.geomspace(1e-1, 1e-6, 40)
    si, ci = special.sici(lams)
    f = ci * np.sin(lams) - (si - math.pi / 2) * np.cos(lams)
    for c in (-2.0, 3.0):
        got = ml.ExpTiltMultiplier(c).regularized_means(ml.cauchy(), lams)
        np.testing.assert_allclose(got, c * (1.0 - lams * f), rtol=1e-13)


def test_quadrature_finds_a_bump_it_never_samples():
    # N(1, 2) near the kink at 0, where the trapezoid nodes crowd; the
    # support (-1e7, 1e7) lies past twice the reach, so it is cut there too
    fam = ml.ExpTiltMultiplier(0.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    want = [_gaussian_oracle(1.0, 2.0, 0.5, lam) for lam in lams.tolist()]
    bump = ml.gaussian(1.0, 2.0)
    for support in ((-math.inf, math.inf), (-1e7, 1e7)):
        quadrature = fam.regularized_means(_Plain(bump, support), lams)
        np.testing.assert_allclose(quadrature, want, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 3.0])
def test_half_line_density_is_not_missed(t):
    # Y = X + t, X ~ Exp(1) as a user density on [0, inf):
    # E(e^(-lam Y) Y) = e^(-lam t) (1 / (1 + lam)^2 + t / (1 + lam)); a per-lam
    # adaptive quad over [0, 60 / lam] read about 0 for lam <= 1e-3
    m = ml.DensityMeasure("exponential", lambda x: math.exp(-x), (0.0, math.inf)).shift(t)
    lams = np.geomspace(1e-1, 1e-4, 13)
    got = ml.ExpTiltMultiplier(2.0).regularized_means(m, lams)
    want = np.exp(-lams * t) * (1.0 / (1.0 + lams) ** 2 + t / (1.0 + lams))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("build", [lambda: ml.gaussian(1.0, 2.0),
                                   lambda: ml.gaussian(0.0, 1.0).shift(1.0)])
def test_off_centre_gaussian_converges_to_its_mean(build):
    # every lam <= 1e-3 used to read 0.0, and the verdict "converged 0.0"
    series = ml.multiplier_mean(build(), ml.ExpTiltMultiplier(0.5))
    assert series.verdict.kind == "converged"
    assert series.verdict.value == pytest.approx(1.0, abs=1e-3)
    assert np.all(series.values > 0.98)


def test_far_location_cauchy_is_finite():
    # cauchy(5e5, 10) at lam = 1e-2 overflowed e^(lam z) into NaN
    m = ml.cauchy(5e5, 10.0)
    series = ml.multiplier_mean(m, ml.ExpTiltMultiplier(0.0))
    assert np.all(np.isfinite(series.values))
    got = ml.ExpTiltMultiplier(3.0).regularized_means(m, np.array(LAMS))
    want = [_cauchy_oracle(5e5, 10.0, 3.0, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-11)


def test_far_narrow_power_tail_is_not_missed():
    # Y = 1e3 + 1e-3 X: an adaptive quad over [0, 6e5] read 0.87 at lam = 1e-4, not 905
    inner = ml.power_tail(1.5, 1.7)
    fam = ml.ExpTiltMultiplier(0.0)
    got = fam.regularized_means(inner.scale(1e-3).shift(1e3), np.array(LAMS))
    edges = [-np.inf, -1e9, -1e6, -1e3, -1.0, 0.0, 1.0, 1e3, 1e6, 1e9, np.inf]
    for lam, value in zip(LAMS, got):
        def f(u):  # E[w(Y) Y] in the inner variable, where the bump has width 1
            y = 1e3 + 1e-3 * u
            return float(fam.weight(y, lam)) * y * inner.pdf(u)
        want = sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
                   for a, b in zip(edges[:-1], edges[1:]))
        assert value == pytest.approx(want, rel=1e-9, abs=1e-8)


def test_unresolvable_bump_raises_instead_of_answering():
    # width 1e-6 at 3e4 is about 3e5 float spacings.  A user density is read at
    # absolute positions, which round onto the float grid there, so the pieces
    # at the bump never pass their checks
    m = _Plain(ml.power_tail(1.5, 1.7).scale(1e-6).shift(3e4))
    with pytest.raises(ml.QuadratureError, match="after .* splits"):
        ml.ExpTiltMultiplier(0.0).regularized_means(m, np.array([1e-4]))


class _Ripple(ml.DensityMeasure):
    """pdf (1 + sin(w x)) / 2 on [0, 2], w = 1e7, with closed-form windows;
    ``calls`` counts its pdf calls."""

    def __init__(self):
        self.family, self.support, self.calls, w = "ripple", (0.0, 2.0), 0, 1e7

        def pdf(x):
            self.calls += 1
            return 0.5 + 0.5 * math.sin(w * x)

        def primitives(x):  # of pdf and of x * pdf
            return (0.5 * x - 0.5 * np.cos(w * x) / w,
                    0.25 * x * x + 0.5 * (np.sin(w * x) / w - x * np.cos(w * x)) / w)
        self.pdf, self._primitives = pdf, primitives

    def _stats_between(self, lo, hi):
        (f_lo, h_lo), (f_hi, h_hi) = self._primitives(lo), self._primitives(hi)
        return f_hi - f_lo, h_hi - h_lo


def test_a_density_failing_everywhere_is_refused_after_few_rounds():
    # every piece fails its checks, so each round bisects twice as many; the
    # round in which more than 1,024 fail is refused, after about 2 x 2,048
    # pieces of 213 tanh-sinh nodes each (a cap of 10,000 would pass 7e6 calls)
    m = _Ripple()
    with pytest.raises(ml.QuadratureError, match="after 11 splits"):
        ml.ExpTiltMultiplier(0.0).regularized_means(m, np.array([1e-2]))
    assert m.calls < 1_000_000


def test_narrow_far_power_tail_is_read_in_its_own_frame():
    # the same bump as an affine image: each node is an anchor plus an offset
    # of the law's own width, read by the inner law
    m = ml.power_tail(1.5, 1.7).scale(1e-6).shift(3e4)
    got = ml.ExpTiltMultiplier(0.0).regularized_means(m, np.array([1e-4]))[0]
    want = _power_tail_oracle(1.5, 1.7, 0.0, 1e-4, 1e-6, 3e4)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_narrow_far_laws_on_the_default_schedule():
    # a law of width 1e-6 at 3e4, written plainly or as an affine image of the
    # standard one
    fam = ml.ExpTiltMultiplier(2.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    for law, oracle in ((ml.gaussian, _gaussian_oracle), (ml.cauchy, _cauchy_oracle)):
        want = [oracle(3e4, 1e-6, 2.5, lam) for lam in lams.tolist()]
        for m in (law(3e4, 1e-6), law().scale(1e-6).shift(3e4)):
            np.testing.assert_allclose(fam.regularized_means(m, lams), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("loc", [1e2, -1e4, 3e4, -1e5])
@pytest.mark.parametrize("law,oracle", [(ml.gaussian, _gaussian_oracle),
                                        (ml.cauchy, _cauchy_oracle)], ids=["gaussian", "cauchy"])
def test_narrow_far_affine_images_match_mpmath(law, oracle, loc):
    # each node is read at its offset from the law's origin, in the inner law's
    # frame; reading them at absolute positions, the rule refused 46 of these 96.
    # The plain law is read in its own frame the same way
    for s in (1e-7, 1e-6, 1e-3, 1e-1):
        for c in (-5.0, 0.0, 2.5):
            for m in (law(loc, s), law().scale(s).shift(loc)):
                got = ml.ExpTiltMultiplier(c).regularized_means(m, LAMS)
                for value, lam in zip(got.tolist(), LAMS):
                    want = oracle(loc, s, c, lam)
                    assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (m.family, s, c, lam)


@pytest.mark.parametrize("m,s", [(1.0, 2.0), (-50.0, 3.0), (1e2, 1e-3), (-7.5, 0.25),
                                 (3e4, 1e-6), (-1e5, 1e-7)])
def test_one_law_written_three_ways_has_one_mean(m, s):
    # the node rule reads every Gaussian and every Cauchy from its origin,
    # however it is built
    lams = np.geomspace(1e-2, 1e-4, 25)
    for c in (-5.0, 0.0, 2.5):
        fam = ml.ExpTiltMultiplier(c)
        want = fam.regularized_means(ml.gaussian(m, s), lams)
        for other in (ml.gaussian().scale(s).shift(m), ml.gaussian().shift(m / s).scale(s)):
            np.testing.assert_allclose(fam.regularized_means(other, lams), want,
                                       rtol=1e-14, atol=0)
        want = fam.regularized_means(ml.cauchy(m, s), lams)
        for other in (ml.cauchy().scale(s).shift(m), ml.cauchy().shift(m / s).scale(s),
                      ml.cauchy(-m, s).negate()):
            np.testing.assert_allclose(fam.regularized_means(other, lams), want,
                                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("width", [1e300, 1e-300])
def test_extreme_widths_are_answered_or_refused(width):
    # outer nodes start at e^-40 of the law's width, held to at most e^20 times
    # the piece's length; a law 1e300 wide is flat over the reach, where the mean is
    # 2 pi c pdf(0) / lam^2.  One far narrower than the float spacing at its
    # origin is refused.
    fam = ml.ExpTiltMultiplier(2.5)
    flat = {ml.gaussian(0.0, width): 1.0 / math.sqrt(2.0 * math.pi),
            ml.gaussian().scale(width): 1.0 / math.sqrt(2.0 * math.pi),
            ml.cauchy().scale(width): 1.0 / math.pi,
            ml.cauchy().scale(width).shift(3.0): None,
            ml.power_tail(1.5, 1.7).scale(width).shift(-2.0): None}
    for m, pdf0 in flat.items():
        try:
            got = fam.regularized_means(m, LAMS)
        except ml.MeasureError:
            assert width < 1.0 and pdf0 is None
            continue
        assert np.all(np.isfinite(got))
        if width > 1.0 and pdf0 is not None:
            want = [2.0 * math.pi * 2.5 * pdf0 / width / lam ** 2 for lam in LAMS]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_widths_below_float_range_are_answered_or_refused():
    # a width that underflows to 0 (a product of scales) or is subnormal still
    # bounds the outer nodes, to e^-700 of their piece at least: node counts
    # and nodes stay finite.  An offset or a window end past float range in a
    # law's own frame reads +-inf, where a Gaussian's pdf and moment vanish; a
    # window that an affine map sends past float range, and a density past it,
    # are refused.  No case warns: the ini makes a RuntimeWarning an error
    fam = ml.ExpTiltMultiplier(2.5)
    cases = [
        (ml.gaussian(0.0, 1e-305), [_gaussian_oracle(0.0, 1e-305, 2.5, lam) for lam in LAMS]),
        (ml.gaussian(0.0, 5e-324), [_gaussian_oracle(0.0, 5e-324, 2.5, lam) for lam in LAMS]),
        # the product of the scales is 0: a point mass at 0
        (ml.gaussian().scale(1e-200).scale(1e-200), [0.0] * len(LAMS)),
        # a mass of about 1e-154 lies farther than 1e-16 from 1
        (ml.power_tail(1.5, 1.7).scale(5e-324).shift(1.0), [math.exp(-lam) for lam in LAMS]),
    ]
    for i, (m, want) in enumerate(cases):
        try:
            got = fam.regularized_means(m, LAMS)
        except ml.MeasureError:
            assert i > 0, "a Gaussian 1e-305 wide is read in its own frame"
            continue
        for value, w in zip(got.tolist(), want):
            assert abs(value - w) <= 1e-13 * max(1.0, abs(w)), (m.family, value, w)


def _power_tail_oracle(a, b, c, lam, s=1.0, t=0.0):
    """E(weight_lam(Y) Y) for Y = s X + t, X ~ power_tail(a, b), by 30-digit
    mpmath quadrature in x, split at 0, at the kink x = -t/s and by decades,
    with C and D solved from the half-line masses C^(-1/e) (pi/e) / sin(pi/e)
    = 1/2 independently of the library."""
    with mp.workdps(30):
        def constant(e):
            return (2 * (mp.pi / e) / mp.sin(mp.pi / e)) ** e

        a, b, s, t, lam = map(mp.mpf, (a, b, s, t, lam))
        C, D, k = constant(a), constant(b), mp.pi * mp.mpf(c) * lam

        def f(x):
            y = s * x + t
            w = mp.exp(-lam * y) if y >= 0 else mp.exp(lam * y) * (1 + k * y)
            return w * y / (1 + (C * x ** a if x > 0 else D * (-x) ** b))

        pts = {mp.mpf(0), -t / s} | {sign * mp.mpf(10) ** j
                                     for j in range(-2, 13) for sign in (1, -1)}
        return float(mp.quad(f, [-mp.inf, *sorted(pts), mp.inf]))


@pytest.mark.parametrize("a,b,c", [(1.5, 1.8, 0.7), (1.3, 1.3, -2.0), (1.9, 1.1, 0.0),
                                   (1.05, 1.95, 2.5)])
def test_power_tail_matches_mpmath(a, b, c):
    got = ml.ExpTiltMultiplier(c).regularized_means(ml.power_tail(a, b), np.array(LAMS))
    for value, lam in zip(got, LAMS):
        want = _power_tail_oracle(a, b, c, lam)
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want))


# ExpTiltMultiplier(c) at lam = 1e-2, 1e-3, 1e-4, as recorded from the
# per-lam adaptive quadrature before the shared trapezoid nodes replaced it
PINNED_POWER_TAIL_MEANS = {
    (1.2, 1.9, 0.0): [2.1095032286413957, 16.40035400583717, 108.59328106389034],
    (1.5, 1.8, 0.7): [1.3060010185950268, 4.52227171370664, 15.301734387926375],
    (1.6, 1.6, -2.0): [-3.4703506082245124, -8.723784625610406, -21.913949482990752],
}


@pytest.mark.parametrize("params", sorted(PINNED_POWER_TAIL_MEANS))
def test_pinned_power_tail_means(params):
    a, b, c = params
    got = ml.ExpTiltMultiplier(c).regularized_means(ml.power_tail(a, b), np.array(LAMS))
    np.testing.assert_allclose(got, PINNED_POWER_TAIL_MEANS[params], rtol=1e-12, atol=0)


# ExpTiltMultiplier(0.0) at lam = 1e-2, 1e-3, 1e-4 on power_tail(1.5, 1.7)
# scaled by s and shifted by t.  Nodes around 0 alone are too coarse where
# the density's kink sits far from 0 relative to its width, so the rule adds
# the kink at t; these used to take a per-lam adaptive quad.  Re-recorded
# when the nodes became anchors plus offsets read in the law's own frame:
# against 30-digit mpmath, shift went 2.9e-16 -> 4.6e-16, far_shift
# 9.6e-14 -> 1.2e-16 and far_narrow 4.4e-13 -> 3.1e-16 (over max(1, |v|)).
FALLBACK_MEANS = {
    "shift": ((1.0, 50.0), [
        29.51733256311269, 49.719791904131455, 61.453962911232665]),
    "far_shift": ((1.0, 1e4), [
        1.0952176785380442e-05, 0.4646699995494431, 3671.0982932018674]),
    "far_narrow": ((1e-3, 1e3), [
        0.04541521750777602, 367.8119077739856, 905.180100033389]),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_MEANS))
def test_off_centre_power_tails_fall_back_to_quadrature(monkeypatch, name):
    calls = _counting_quad(monkeypatch)
    (s, t), means = FALLBACK_MEANS[name]
    measure = ml.power_tail(1.5, 1.7).scale(s).shift(t)
    got = ml.ExpTiltMultiplier(0.0).regularized_means(measure, np.array(LAMS))
    assert calls == []
    np.testing.assert_array_equal(got, means)
    for value, lam in zip(means, LAMS):
        want = _power_tail_oracle(1.5, 1.7, 0.0, lam, s, t)
        assert abs(value - want) <= 1e-11 * max(1.0, abs(want))


# power_tail(1.5, 1.7) under each wrap kind the benchmark draws (shift, scale,
# negate, and negate-scale-shift), and under a negative scale and a shift
AFFINE_IMAGES = {
    "shift": (1.0, -2.0), "scale": (3.0, 0.0), "negate": (-1.0, 0.0),
    "negate_scale_shift": (-0.5, 4.0), "scale_-2_shift_0.5": (-2.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(AFFINE_IMAGES))
def test_affine_power_tails_match_mpmath_without_quad(monkeypatch, name):
    calls = _counting_quad(monkeypatch)
    s, t = AFFINE_IMAGES[name]
    measure = ml.power_tail(1.5, 1.7)
    measure = measure.negate().scale(-s) if s < 0 else measure.scale(s)
    got = ml.ExpTiltMultiplier(0.7).regularized_means(measure.shift(t), np.array(LAMS))
    assert calls == []
    for value, lam in zip(got, LAMS):
        want = _power_tail_oracle(1.5, 1.7, 0.7, lam, s, t)
        assert abs(value - want) <= 1e-11 * max(1.0, abs(want))


def test_shifted_power_tail_matches_mpmath_on_the_default_schedule(monkeypatch):
    calls = _counting_quad(monkeypatch)
    fam = ml.ExpTiltMultiplier(0.7)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    got = fam.regularized_means(ml.power_tail(1.3, 1.6).scale(-2.0).shift(0.5), lams)
    assert calls == []
    want = [_power_tail_oracle(1.3, 1.6, 0.7, lam, -2.0, 0.5) for lam in lams.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_centred_power_tail_makes_no_quadrature_call(monkeypatch):
    calls = _counting_quad(monkeypatch)
    ml.multiplier_mean(ml.power_tail(1.5, 1.8), ml.ExpTiltMultiplier(0.7))
    assert calls == []


def _counting_bisect(monkeypatch):
    pieces = []
    original = measures._bisect

    def counted(piece):
        pieces.append(piece)
        return original(piece)

    monkeypatch.setattr(measures, "_bisect", counted)
    return pieces


def test_step_halving_sends_an_under_resolved_bump_to_quadrature(monkeypatch):
    # N(10, 1) is about 0.1 wide in u = log x: the nodes from 0 still see its
    # mass (to 2e-15), but the step-h and step-2h means differ by about
    # 1e-5, so the half-line [0, 6e5] is bisected
    split = _counting_bisect(monkeypatch)
    fam = ml.ExpTiltMultiplier(0.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    got = fam.regularized_means(_Plain(ml.gaussian(10.0, 1.0)), lams)
    assert (0.0, 6e5, True, 0) in split
    want = [_gaussian_oracle(10.0, 1.0, 0.5, lam) for lam in lams.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_mass_check_sends_a_bump_between_the_nodes_to_quadrature(monkeypatch):
    # nodes near 1e4 are about 500 apart, so both steps miss N(1e4, 1) and
    # agree on 0; only the window mass shows what they missed
    split = _counting_bisect(monkeypatch)
    got = ml.ExpTiltMultiplier(0.5).regularized_means(_Plain(ml.gaussian(1e4, 1.0)),
                                                      np.array(LAMS))
    assert (0.0, 6e5, True, 0) in split
    want = [_gaussian_oracle(1e4, 1.0, 0.5, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)


def _kernel_calls(monkeypatch):
    calls = []
    original = ml.ExpTiltMultiplier._kernel

    def recorded(self, lams, y):
        out = original(self, lams, y)
        calls.append((self, lams, y, out))
        return out

    monkeypatch.setattr(ml.ExpTiltMultiplier, "_kernel", recorded)
    return calls


def test_centred_power_tail_takes_one_window_call_and_one_kernel_product(monkeypatch):
    # one kernel product per piece: the half-lines either side of the kink at 0,
    # whose nodes mirror each other
    calls = _kernel_calls(monkeypatch)
    measure = ml.power_tail(1.5, 1.8)
    windows = []
    original = measure.window_stats

    def counted(lo, hi):
        windows.append((lo, hi))
        return original(lo, hi)

    monkeypatch.setattr(measure, "window_stats", counted)
    ml.ExpTiltMultiplier(0.0).regularized_means(measure, np.geomspace(1e-2, 1e-4, 25))
    assert len(windows) == 1 and len(calls) == 2
    (*_, left, _), (*_, right, _) = calls
    assert np.all(np.diff(right) > 0) and right[0] > 0 and np.array_equal(left, -right)


@pytest.mark.parametrize("c", [0.0, -1.5, 4.0])
@pytest.mark.parametrize("build", [
    lambda: ml.finite_comb([ml.Atom(x, 0.125) for x in (-3e4, -250.0, -7.5, -0.3, 0.4, 12.0,
                                                         900.0, 5e4)]),
    lambda: ml.power_tail(1.5, 1.7).shift(50.0),
], ids=["finite_comb", "power_tail_shift_50"])
def test_kernel_sums_the_weight_over_the_rules_nodes(monkeypatch, build, c):
    # the tilt weight is stated once: every kernel entry equals weight(y, lam) * y
    # at the rule's own signed nodes y
    calls = _kernel_calls(monkeypatch)
    ml.ExpTiltMultiplier(c).regularized_means(build(), np.geomspace(1e-1, 1e-5, 9))
    assert calls
    for fam, lams, y, out in calls:
        assert out.shape == (lams.size, y.size)
        for i, lam in enumerate(lams.tolist()):
            want = fam.weight(y, lam) * y
            np.testing.assert_allclose(out[i], want, rtol=1e-12,
                                       atol=1e-14 * np.abs(want).sum())


def _atom_loop(fam, measure, lam):
    """Reference: the atoms within the reach, summed one lam at a time."""
    atoms = measure.atoms_within(_TILT_REACH / lam)
    x = np.array([a.location for a in atoms])
    w = np.array([a.weight for a in atoms])
    return math.fsum(fam.weight(x, lam) * x * w)


@pytest.mark.parametrize("build", [
    ml.comb_ex2, ml.comb_ex4, lambda: ml.comb_ex4().negate().shift(3.0),
    lambda: ml.EmpiricalMeasure(np.random.default_rng(5).standard_cauchy(5000)),
])
def test_atomic_schedule_in_one_pass_matches_the_loop(build):
    fam = ml.ExpTiltMultiplier(1.5)
    lams = np.geomspace(1e-1, 1e-4, 13)
    got = fam.regularized_means(build(), lams)
    want = [_atom_loop(fam, build(), lam) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    assert fam.regularized_means(build(), [lams[3]])[0] == pytest.approx(got[3], rel=1e-14)


@pytest.mark.parametrize("c", [-2.0, 0.7, 3.0])
def test_two_atoms_leave_only_the_tilt_term(c):
    # mass 1/2 at -x and at x: the damped halves cancel, and the tilt term
    # pi c lam x of the atom at -x leaves (x^2 / 2) pi c lam e^(-lam x)
    x = 250.0
    m = ml.finite_comb([ml.Atom(-x, 0.5), ml.Atom(x, 0.5)])
    lams = np.array([4.4e-3, 4e-3, 3.6e-3])
    got = ml.ExpTiltMultiplier(c).regularized_means(m, lams)
    want = [x * x / 2 * math.pi * c * lam * math.exp(-lam * x) for lam in lams.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_integer_power_comb_fails_fast_at_the_atom_cap():
    m = ml.integer_power_comb(3.0)
    with pytest.raises(ml.MeasureError, match="more than 200000 atoms"):
        ml.multiplier_mean(m, ml.ExpTiltMultiplier(0.0))
    # again, with every import done: refused from the count, before building
    # 200,000 atoms (1.6 MB per array)
    tracemalloc.start()
    try:
        with pytest.raises(ml.MeasureError, match="more than 200000 atoms"):
            ml.multiplier_mean(m, ml.ExpTiltMultiplier(0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# ExpTiltMultiplier(2.5) at lam = 1e-2, 1e-3, 1e-4, all by the node rule.
# The last three were re-recorded when its nodes became anchors plus offsets
# read in the law's own frame: against 40-digit mpmath, gaussian_mu_sigma
# (once a closed form) and gaussian_scale_shift stayed at 2.2e-16 and 4.4e-16,
# and cauchy_3_levels went 1.5e-16 -> 2.9e-16 (over max(1, |v|)).  The plain
# Cauchy laws were re-recorded when their closed form went: cauchy came out
# bitwise the same (1.8e-16), and cauchy_far went 3.3e-16 -> 1.2e-16.
PINNED_TILT_MEANS = {
    "cauchy": (lambda: ml.cauchy(), [
        2.461989019517544, 2.4960913374921416, 2.4996075417483823]),
    "cauchy_far": (lambda: ml.cauchy(1e4, 1.0), [
        0.0004742409218737868, 0.4885406122210165, 3678.9421783677685]),
    "gaussian_mu_sigma": (lambda: ml.gaussian(1.0, 2.0), [
        1.031474800339984, 1.0032513766017859, 1.0003261948896416]),
    "gaussian_scale_shift": (lambda: ml.gaussian(0.5, 2.0).scale(-3.0).shift(1.0), [
        1.007776601266415, -0.3356303971409105, -0.4834192910853723]),
    "cauchy_3_levels": (lambda: ml.cauchy(0.3, 1.5).negate().scale(2.0).shift(-1.0), [
        6.478640689046234, 6.02497748127622, 5.919406207347435]),
}


@pytest.mark.parametrize("name", sorted(PINNED_TILT_MEANS))
def test_pinned_closed_form_means(name):
    build, means = PINNED_TILT_MEANS[name]
    got = ml.ExpTiltMultiplier(2.5).regularized_means(build(), [1e-2, 1e-3, 1e-4])
    np.testing.assert_array_equal(got, means)
