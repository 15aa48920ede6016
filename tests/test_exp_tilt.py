"""The exponential-tilt multiplier: closed forms, quadrature and atoms.

The closed forms are checked against mpmath at 40 digits.  The Cauchy oracle
evaluates Im[z e^(-lam z) E1(-lam z) - z (1 + k z) e^(lam z) E1(lam z)] / pi
+ c scale (z = loc + i scale, k = pi c lam) with mpmath's own E1; the
Gaussian oracle evaluates the completed-square half-line moments with
mpmath's normal cdf and pdf.  The library evaluates neither expression: it
uses a series or continued fraction for w e^w E1(w) - 1 and erfcx.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

import meanlab as ml
from meanlab.genmean import _cauchy_tilt_means, _gaussian_tilt_means

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
]


@pytest.mark.parametrize("build,law,c", CAUCHY_CASES)
def test_cauchy_closed_form_matches_mpmath(build, law, c):
    got = ml.ExpTiltMultiplier(c).regularized_means(build(), np.array(LAMS))
    want = [_cauchy_oracle(*law, c, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


GAUSSIAN_CASES = [
    (lambda: ml.gaussian(1.0, 2.0), (1.0, 2.0)),
    (lambda: ml.gaussian(100.0, 1.0), (100.0, 1.0)),
    (lambda: ml.gaussian(-50.0, 3.0), (-50.0, 3.0)),
    (lambda: ml.gaussian(1e4, 1e-2), (1e4, 1e-2)),
    (lambda: ml.gaussian(0.0, 1.0).shift(1.0), (1.0, 1.0)),
    (lambda: ml.gaussian(0.5, 2.0).shift(1.0).scale(-0.5), (-0.75, 1.0)),
]


@pytest.mark.parametrize("c", [0.0, 2.5])
@pytest.mark.parametrize("build,law", GAUSSIAN_CASES)
def test_gaussian_closed_form_matches_mpmath(build, law, c):
    got = ml.ExpTiltMultiplier(c).regularized_means(build(), np.array(LAMS))
    want = [_gaussian_oracle(*law, c, lam) for lam in LAMS]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_standard_cauchy_is_the_abramowitz_stegun_form():
    # c (1 - lam f(lam)) with f(lam) = Ci(lam) sin(lam) - si(lam) cos(lam)
    lams = np.geomspace(1e-1, 1e-6, 40)
    si, ci = special.sici(lams)
    f = ci * np.sin(lams) - (si - math.pi / 2) * np.cos(lams)
    for c in (-2.0, 3.0):
        got = _cauchy_tilt_means(0.0, 1.0, c, lams)
        np.testing.assert_allclose(got, c * (1.0 - lams * f), rtol=1e-13)


def _plain(measure):
    """The same law with no closed form: its pdf and window kernel only."""
    return ml.DensityMeasure("plain", measure.pdf,
                             stats_between=lambda a, b: measure.window_stats(a, b))


@pytest.mark.parametrize("c", [-2.0, 3.0])
def test_cauchy_closed_form_agrees_with_quadrature(c):
    fam = ml.ExpTiltMultiplier(c)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    closed = fam.regularized_means(ml.cauchy(), lams)
    quadrature = fam.regularized_means(_plain(ml.cauchy()), lams)
    np.testing.assert_allclose(closed, quadrature, rtol=1e-12)


def test_quadrature_finds_a_bump_it_never_samples():
    # GK21 on [0, 4e5] never samples N(1, 2); the mass check splits the range
    fam = ml.ExpTiltMultiplier(0.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    closed = _gaussian_tilt_means(1.0, 2.0, 0.5, lams)
    quadrature = fam.regularized_means(_plain(ml.gaussian(1.0, 2.0)), lams)
    np.testing.assert_allclose(quadrature, closed, rtol=1e-9, atol=1e-10)


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
    # Y = 1e3 + 1e-3 X: the old quadrature read 0.87 at lam = 1e-4, not 905
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
    # width 1e-6 at 3e4 is about 3e5 float spacings: quad cannot converge there
    m = ml.power_tail(1.5, 1.7).scale(1e-6).shift(3e4)
    with pytest.raises(ml.QuadratureError):
        ml.ExpTiltMultiplier(0.0).regularized_means(m, np.array([1e-4]))


def test_power_tail_keeps_its_quadrature_values():
    # the scalar-math integrand against the array weight() in an integrand
    fam = ml.ExpTiltMultiplier(1.5)
    m = ml.power_tail(1.3, 1.8)
    for lam in (1e-2, 1e-4):
        X = fam._cutoff(lam, 1e-10)
        want = sum(integrate.quad(lambda x: float(fam.weight(x, lam)) * x * m.pdf(x), a, b,
                                  epsabs=1e-10, epsrel=1e-12, limit=10_000)[0]
                   for a, b in ((-X, 0.0), (0.0, X)))
        assert fam.regularized_mean(m, lam) == pytest.approx(want, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("c", [0.0, -1.5, 4.0])
def test_scalar_integrand_weight_equals_array_weight(c):
    fam = ml.ExpTiltMultiplier(c)
    xs = np.array([-3e4, -250.0, -7.5, -0.3, 0.0, 0.4, 12.0, 900.0, 5e4])
    for lam in (1e-1, 1e-3, 1e-5):
        neg, pos = fam._integrands(lambda x: 1.0, lam)
        scalar = [(neg if x < 0 else pos)(x) / x if x else 1.0 for x in xs.tolist()]
        np.testing.assert_allclose(scalar, fam.weight(xs, lam), rtol=1e-15, atol=0)


def _atom_loop(fam, measure, lam):
    """Reference: the atoms within the cutoff, summed one lam at a time."""
    atoms = measure.atoms_within(fam._cutoff(lam, 1e-10))
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
    assert fam.regularized_mean(build(), lams[3]) == pytest.approx(got[3], rel=1e-14)


def test_integer_power_comb_fails_fast_at_the_atom_cap():
    m = ml.integer_power_comb(3.0)
    with pytest.raises(ml.MeasureError, match="more than 200000 atoms"):
        ml.multiplier_mean(m, ml.ExpTiltMultiplier(0.0))
    assert m.atoms_within(0.0) == []  # nothing was enumerated for the refusal
