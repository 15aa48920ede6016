"""The exponential-tilt multiplier: closed forms, quadrature and atoms.

The closed forms are checked against mpmath at 40 digits.  The Cauchy oracle
evaluates Im[z e^(-lam z) E1(-lam z) - z (1 + k z) e^(lam z) E1(lam z)] / pi
+ c scale (z = loc + i scale, k = pi c lam) with mpmath's own E1; the
Gaussian oracle evaluates the completed-square half-line moments with
mpmath's normal cdf and pdf.  The library evaluates neither expression: it
uses a series or continued fraction for w e^w E1(w) - 1 and erfcx.  The
power_tail means, a trapezoid rule in log|x| with an adaptive fallback, are
checked against 30-digit mpmath quadrature.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

import meanlab as ml
from meanlab.genmean import _TILT_REACH, _cauchy_tilt_means, _gaussian_tilt_means

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
    # the trapezoid rule sees N(1, 2) on the whole line; on a bounded support
    # the adaptive fallback runs, where GK21 on [0, 6e5] never samples the
    # bump and the mass check splits the range
    fam = ml.ExpTiltMultiplier(0.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    closed = _gaussian_tilt_means(1.0, 2.0, 0.5, lams)
    bump = ml.gaussian(1.0, 2.0)
    for support in ((-math.inf, math.inf), (-1e7, 1e7)):
        plain = ml.DensityMeasure("plain", bump.pdf, support,
                                  stats_between=lambda a, b: bump.window_stats(a, b))
        quadrature = fam.regularized_means(plain, lams)
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
# per-lam adaptive quadrature before the trapezoid rule replaced it
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


def _counting_quad(monkeypatch):
    calls = []
    original = integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    return calls


# ExpTiltMultiplier(0.0) at lam = 1e-2, 1e-3, 1e-4: the trapezoid nodes are
# too coarse where the density's features sit far from 0 relative to their
# width, so these take the per-lam quadrature over |x| <= _TILT_REACH / lam.
# Each is power_tail(1.5, 1.7) scaled by s and shifted by t.
FALLBACK_MEANS = {
    "shift": ((1.0, 50.0), [
        29.517332563112735, 49.719791904273265, 61.45396291123279]),
    "far_shift": ((1.0, 1e4), [
        1.0952176785380415e-05, 0.4646699995494386, 3671.098293201379]),
    "far_narrow": ((1e-3, 1e3), [
        0.045415217507502346, 367.8119077741471, 905.1801000320131]),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_MEANS))
def test_off_centre_power_tails_fall_back_to_quadrature(monkeypatch, name):
    calls = _counting_quad(monkeypatch)
    (s, t), means = FALLBACK_MEANS[name]
    measure = ml.power_tail(1.5, 1.7).scale(s).shift(t)
    got = ml.ExpTiltMultiplier(0.0).regularized_means(measure, np.array(LAMS))
    assert calls
    np.testing.assert_array_equal(got, means)
    for value, lam in zip(means, LAMS):
        want = _power_tail_oracle(1.5, 1.7, 0.0, lam, s, t)
        assert abs(value - want) <= 1e-11 * max(1.0, abs(want))


def test_centred_power_tail_makes_no_quadrature_call(monkeypatch):
    calls = _counting_quad(monkeypatch)
    ml.multiplier_mean(ml.power_tail(1.5, 1.8), ml.ExpTiltMultiplier(0.7))
    assert calls == []


def test_step_halving_sends_an_under_resolved_bump_to_quadrature(monkeypatch):
    # N(10, 1) is about 0.1 wide in u = log x: the nodes still see its mass
    # (to 2e-15), but the step-h and step-2h means differ by about 1e-5
    calls = _counting_quad(monkeypatch)
    fam = ml.ExpTiltMultiplier(0.5)
    lams = fam.default_lambdas(ml.TruncationSchedule())
    got = fam.regularized_means(_plain(ml.gaussian(10.0, 1.0)), lams)
    assert calls
    np.testing.assert_allclose(got, _gaussian_tilt_means(10.0, 1.0, 0.5, lams), rtol=1e-9)


def test_mass_check_sends_a_bump_between_the_nodes_to_quadrature(monkeypatch):
    # nodes near 1e4 are about 500 apart, so both steps miss N(1e4, 1) and
    # agree on 0; only the window mass shows what they missed
    calls = _counting_quad(monkeypatch)
    got = ml.ExpTiltMultiplier(0.5).regularized_means(_plain(ml.gaussian(1e4, 1.0)),
                                                      np.array(LAMS))
    assert calls
    np.testing.assert_allclose(got, _gaussian_tilt_means(1e4, 1.0, 0.5, np.array(LAMS)),
                               rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("c", [0.0, -1.5, 4.0])
def test_scalar_integrand_weight_equals_array_weight(c):
    fam = ml.ExpTiltMultiplier(c)
    xs = np.array([-3e4, -250.0, -7.5, -0.3, 0.0, 0.4, 12.0, 900.0, 5e4])
    for lam in (1e-1, 1e-3, 1e-5):
        neg, pos = fam._integrands(lambda x: 1.0, lam)
        scalar = [(neg if x < 0 else pos)(x) / x if x else 1.0 for x in xs.tolist()]
        np.testing.assert_allclose(scalar, fam.weight(xs, lam), rtol=1e-15, atol=0)


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


# ExpTiltMultiplier(2.5) at lam = 1e-2, 1e-3, 1e-4, as recorded before the
# closed forms were looked up through Measure.location_scale()
PINNED_TILT_MEANS = {
    "cauchy": (lambda: ml.cauchy(), [
        2.461989019517544, 2.4960913374921416, 2.4996075417483823]),
    "cauchy_far": (lambda: ml.cauchy(1e4, 1.0), [
        0.0004742409218737864, 0.4885406122210168, 3678.942178367769]),
    "gaussian_mu_sigma": (lambda: ml.gaussian(1.0, 2.0), [
        1.0314748003399838, 1.0032513766017863, 1.0003261948896418]),
    "gaussian_scale_shift": (lambda: ml.gaussian(0.5, 2.0).scale(-3.0).shift(1.0), [
        1.0077766012664147, -0.33563039714091036, -0.4834192910853729]),
    "cauchy_3_levels": (lambda: ml.cauchy(0.3, 1.5).negate().scale(2.0).shift(-1.0), [
        6.478640689046234, 6.024977481276217, 5.919406207347433]),
}


@pytest.mark.parametrize("name", sorted(PINNED_TILT_MEANS))
def test_pinned_closed_form_means(name):
    build, means = PINNED_TILT_MEANS[name]
    got = ml.ExpTiltMultiplier(2.5).regularized_means(build(), [1e-2, 1e-3, 1e-4])
    np.testing.assert_array_equal(got, means)
