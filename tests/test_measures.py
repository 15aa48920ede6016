"""Window arithmetic of the measure representations."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import meanlab as ml
from meanlab import genmean, measures
from meanlab.measures import MASS_TOL, Affine

# ---------------------------------------------------------------------------
# Window mass
# ---------------------------------------------------------------------------

def test_comb_ex2_window_mass_hand_enumeration():
    # atoms inside [-2, 2]: +2 and -2, each weight 1/4
    m = ml.comb_ex2()
    assert m.window_stats(-2, 2)[0] == pytest.approx(0.5, abs=0)


def test_gaussian_total_mass():
    m = ml.gaussian(0, 1)
    assert m.window_stats(-40, 40)[0] == pytest.approx(1.0, abs=1e-12)


def test_cauchy_central_window_mass():
    # (2/pi) * arctan(1) = 1/2
    m = ml.cauchy(0, 1)
    assert m.window_stats(-1, 1)[0] == pytest.approx(0.5, abs=1e-12)


def test_mass_bounds_and_monotonicity():
    for m in (ml.comb_ex1(), ml.cauchy(), ml.gaussian(), ml.power_tail(1.5, 1.8)):
        inner = m.window_stats(-3, 3)[0]
        outer = m.window_stats(-10, 10)[0]
        assert 0.0 <= inner <= outer <= 1.0


def test_window_requires_ordered_endpoints():
    with pytest.raises(ml.MeasureError):
        ml.gaussian().window_stats(1.0, -1.0)[0]


# ---------------------------------------------------------------------------
# Window first moment
# ---------------------------------------------------------------------------

def test_comb_ex1_moment_cancellation():
    # atom 4 contributes 4 * (1/4) = 1; atom -2 contributes -2 * (1/2) = -1
    m = ml.comb_ex1()
    assert m.window_stats(-4, 4)[1] == 0.0


def test_cauchy_symmetric_window_moment_is_zero():
    m = ml.cauchy(0, 1)
    for M in (1.0, 17.3, 1e4):
        assert m.window_stats(-M, M)[1] == pytest.approx(0.0, abs=1e-14)


def test_cauchy_asymmetric_window_closed_form():
    # (1/2pi) ln((1 + 4M^2) / (1 + M^2)) -> ln(2)/pi
    m = ml.cauchy(0, 1)
    M = 1000.0
    got = m.window_stats(-M, 2 * M)[1]
    exact = math.log((1 + 4 * M * M) / (1 + M * M)) / (2 * math.pi)
    assert got == pytest.approx(exact, abs=1e-12)
    assert got == pytest.approx(math.log(2) / math.pi, abs=1e-3)


def test_gaussian_moment_matches_quadrature():
    m = ml.gaussian(1.5, 2.0)
    lo, hi = -3.0, 7.0
    ref, _ = quad(lambda x: x * m.pdf(x), lo, hi, epsabs=1e-12)
    assert m.window_stats(lo, hi)[1] == pytest.approx(ref, abs=1e-10)


def test_power_tail_closed_forms_match_quadrature():
    m = ml.power_tail(1.5, 1.8)
    for lo, hi in ((-5.0, 2.0), (0.0, 100.0), (-1000.0, 3.0)):
        ref_mass, _ = quad(m.pdf, lo, hi, epsabs=1e-12, limit=200)
        ref_mom, _ = quad(lambda x: x * m.pdf(x), lo, hi, epsabs=1e-12, limit=200)
        assert m.window_stats(lo, hi)[0] == pytest.approx(ref_mass, abs=1e-9)
        assert m.window_stats(lo, hi)[1] == pytest.approx(ref_mom, abs=1e-8)


def test_power_tail_halves_carry_equal_mass():
    m = ml.power_tail(1.5, 1.8)
    assert m.window_stats(-1e300, 0)[0] == pytest.approx(0.5, abs=1e-9)
    assert m.window_stats(0, 1e300)[0] == pytest.approx(0.5, abs=1e-9)


def test_power_tail_pdf_reads_zero_past_float_range():
    # C |x|^e raised OverflowError past float range, where gaussian and cauchy read 0.0
    m = ml.power_tail(1.5, 1.7)
    assert m.pdf(1e250) == m.pdf(-1e250) == m.pdf(1e300) == 0.0
    assert 0.0 < m.pdf(1e200) < 1e-299 and 0.0 < m.pdf(-1e180) < 1e-305


def _scalar_pdf(family, a=0.0, b=0.0):
    """The closed forms' pdfs as scalar Python arithmetic, with its own zeros."""
    if family == "gaussian":
        return lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if family == "cauchy":
        return lambda x: 1.0 / (math.pi * (1.0 + x * x))
    C, D = measures._power_tail_constant(a), measures._power_tail_constant(b)

    def pdf(x):
        try:
            return 1.0 / (1.0 + (C * x ** a if x >= 0 else D * (-x) ** b))
        except OverflowError:
            return 0.0
    return pdf


def _mp_pdf(family, x, a=0.0, b=0.0):
    x = mp.mpf(x)
    if family == "gaussian":
        return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    if family == "cauchy":
        return 1 / (mp.pi * (1 + x * x))
    e = a if x >= 0 else b
    return 1 / (1 + mp.mpf(measures._power_tail_constant(e)) * abs(x) ** e)


_PDF_POINTS = [s * v for v in (0.0, 5e-324, 1e-300, 0.3, 1.0, 7.5, 39.0, 1e3, 1e20, 1e154,
                               1e200, 1e300, 1.7e308, math.inf) for s in (1.0, -1.0)]


@pytest.mark.parametrize("family, a, b", [("gaussian", 0.0, 0.0), ("cauchy", 0.0, 0.0),
                                          ("power_tail", 1.5, 1.7), ("power_tail", 1.3, 1.8)])
def test_closed_form_pdf_reads_an_array(family, a, b):
    # one numpy expression over the whole array, warning nothing; a float in
    # gives a float out (not bitwise the array's: scalar and array ** may differ)
    m = ml.make_measure(family, **({"a": a, "b": b} if family == "power_tail" else {}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.pdf(np.array(_PDF_POINTS))
        one = m.pdf(0.3)
    assert isinstance(one, float) and one == pytest.approx(got[_PDF_POINTS.index(0.3)], rel=4e-16)
    scalar = _scalar_pdf(family, a, b)
    with mp.workdps(40):
        for x, value in zip(_PDF_POINTS, got.tolist()):
            want = mp.mpf(0) if math.isinf(x) else _mp_pdf(family, x, a, b)
            if want >= sys.float_info.min:
                assert abs(value - want) <= 4e-16 * want, x
            if scalar(x) == 0.0:
                assert value == 0.0, x



_SCALED_LAWS = {"cauchy(0, 1e-3)": lambda: ml.cauchy(0.0, 1e-3),
                "gaussian(0, 1e-3)": lambda: ml.gaussian(0.0, 1e-3),
                "power_tail.scale(1e-3)": lambda: ml.power_tail(1.5, 1.7).scale(1e-3),
                "cauchy().scale(1e-3)": lambda: ml.cauchy().scale(1e-3)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", _SCALED_LAWS)
def test_a_scaled_pdf_past_float_range_reads_zero(name):
    # x / 1e-3 passes float range in the law's own frame: an array reads 0.0
    # there without a warning, as a Python float does
    law = _SCALED_LAWS[name]()
    got = law.pdf(np.array([1.7e308, -1.7e308, 0.0]))
    assert got[:2].tolist() == [law.pdf(1.7e308), law.pdf(-1.7e308)] == [0.0, 0.0]
    assert got[2] == pytest.approx(law.pdf(0.0), rel=4e-16) and got[2] > 100.0

def test_a_whole_line_window_of_a_heavy_tailed_law_is_refused():
    # its moment is inf - inf; half-lines read +-inf, and a gaussian answers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (ml.cauchy(), ml.power_tail(1.5, 1.7), ml.cauchy().shift(2.0)):
            with pytest.raises(ml.MeasureError, match="first moment diverges"):
                m.window_stats(-math.inf, math.inf)
            assert m.window_stats(0.0, math.inf)[1] == math.inf
            assert m.window_stats(-math.inf, 0.0)[1] == -math.inf
        assert [float(v) for v in ml.gaussian().window_stats(-math.inf, math.inf)] == [1.0, 0.0]


def test_power_tail_tails_are_nonnegative_out_to_float_range():
    # 1/2 minus a half-line mass cancelled below 0 for about half of these laws,
    # from t = 1e15; the unclipped tail is asked, since tail_probability clips
    t = 10.0 ** np.arange(1.0, 309.0)
    for a, b in np.random.default_rng(61).uniform(1.01, 1.99, (300, 2)).tolist():
        assert np.all(ml.power_tail(a, b)._outside(-t, t) >= 0.0), (a, b)


def test_power_tail_tail_curve_skips_the_moment_primitive(monkeypatch):
    import scipy.special
    hyp2f1, calls = scipy.special.hyp2f1, []

    def spy(a, b, c, z):  # b = m / e for the primitive of x^(m-1) * pdf
        calls.append(b)
        return hyp2f1(a, b, c, z)

    monkeypatch.setattr(scipy.special, "hyp2f1", spy)
    m = ml.power_tail(1.5, 1.8)
    m.tail_probability(np.geomspace(1.0, 1e6, 36))
    assert calls == [1.0 / 1.5, 1.0 / 1.8]  # m = 1 on each half
    calls.clear()
    m.window_stats(-3.0, 5.0)
    assert calls == [1.0 / 1.5, 2.0 / 1.5, 1.0 / 1.8, 2.0 / 1.8]


def test_power_tail_rejects_bad_exponents():
    for a, b in ((1.0, 1.5), (2.0, 1.5), (1.5, 2.5)):
        with pytest.raises(ml.MeasureError):
            ml.power_tail(a, b)


# ---------------------------------------------------------------------------
# Normalization of the comb families
# ---------------------------------------------------------------------------

def _raw_ex4_mass(n_max=200):
    total = 0.0
    for n in range(1, n_max + 1):
        total += 2.0 ** (n - 1) / 3.0 ** (n + 1) + 2.0 ** (n - 2) / 3.0 ** (n + 1)
    tail = 0.5 * (2.0 / 3.0) ** n_max  # geometric bound on the remainder
    return total, tail


def test_comb_ex4_raw_mass_is_half_and_gets_rescaled():
    raw, tail = _raw_ex4_mass()
    assert abs(raw - 0.5) <= tail + 1e-15
    m = ml.make_measure("comb_ex4")
    atoms = m.atoms_within(3.0 ** 6)
    # after rescaling, atom at +3 carries 2 * (1/9) = 2/9
    w3 = [a.weight for a in atoms if a.location == 3.0][0]
    assert w3 == pytest.approx(2.0 / 9.0, abs=1e-15)
    # the triadic tail needs |z| up to 3^52 before it drops below MASS_TOL
    total = sum(a.weight for a in m.atoms_within(1e26))
    assert total == pytest.approx(1.0, abs=MASS_TOL)


def _raw_ex5_mass(n_max=220):
    total = 0.0
    for n in range(1, n_max + 1):
        total += 2.0 ** n / (3.0 ** n + 1.0 / n) + 2.0 ** (n - 1) / 3.0 ** n
    return total, 3.0 * (2.0 / 3.0) ** n_max


def test_comb_ex5_normalizer():
    raw, tail = _raw_ex5_mass()
    expected_K = 1.0 / (raw + tail / 2.0)
    m = ml.make_measure("comb_ex5")
    assert m.normalizer == pytest.approx(expected_K, rel=1e-12)
    # the raw series sums strictly below 3, so K sits above 1/3 (and below 1/2)
    assert 1.0 / 3.0 < m.normalizer < 0.5
    total = sum(a.weight for a in m.atoms_within(1e19))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_comb_ex2_already_normalized():
    total = sum(a.weight for a in ml.make_measure("comb_ex2").atoms_within(1e12))
    assert total == pytest.approx(1.0, abs=2 ** -39)


def test_make_measure_unknown_comb_family():
    with pytest.raises(ml.MeasureError):
        ml.make_measure("comb_ex3")


# ---------------------------------------------------------------------------
# Integer power comb (closed-form windows)
# ---------------------------------------------------------------------------

def test_integer_power_comb_matches_explicit_sums():
    p = 3.0
    m = ml.integer_power_comb(p)
    z = sum(n ** -p for n in range(1, 200000))
    explicit_mass = sum(n ** -p for n in range(2, 8)) / z
    explicit_mom = sum(n ** (1 - p) for n in range(2, 8)) / z
    assert m.window_stats(2, 7)[0] == pytest.approx(explicit_mass, rel=1e-9)
    assert m.window_stats(2, 7)[1] == pytest.approx(explicit_mom, rel=1e-9)
    # a point window on an integer holds its atom, so the open window (2, 7)
    # is the closed one minus the point windows at both ends
    assert m.window_stats(2, 2)[0] == pytest.approx(2 ** -p / z, rel=1e-9)
    open_mass = sum(n ** -p for n in range(3, 7)) / z
    points = m.window_stats([2, 7], [2, 7])[0].sum()
    assert m.window_stats(2, 7)[0] - points == pytest.approx(open_mass, rel=1e-9)


def test_integer_power_comb_tail_probability():
    m = ml.integer_power_comb(4.0)
    z = float(sum(n ** -4.0 for n in range(1, 200000)))
    expected = sum(n ** -4.0 for n in range(6, 200000)) / z
    assert m.tail_probability(5.0) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# Empirical measures
# ---------------------------------------------------------------------------

def test_empirical_window_ops():
    m = ml.EmpiricalMeasure([3.0, -1.0, 2.0, 2.0])
    assert m.window_stats(-1, 2)[0] == pytest.approx(0.75)
    # point windows count the samples on them, repeats included
    assert m.window_stats(-1, -1)[0] == 0.25
    assert m.window_stats(2, 2)[0] == 0.5
    assert m.window_stats(0, 3)[1] == pytest.approx((2 + 2 + 3) / 4)


def test_empirical_rejects_empty_or_nonfinite():
    with pytest.raises(ml.MeasureError):
        ml.EmpiricalMeasure([])
    with pytest.raises(ml.MeasureError):
        ml.EmpiricalMeasure([1.0, math.nan])


# ---------------------------------------------------------------------------
# Affine wrappers
# ---------------------------------------------------------------------------

@given(a=st.floats(-10, 10), lo=st.floats(-20, 20), width=st.floats(0, 30))
@settings(max_examples=50, deadline=None)
def test_shift_equivariance_gaussian(a, lo, width):
    base = ml.gaussian(0.5, 1.5)
    hi = lo + width
    shifted = base.shift(a)
    lhs = shifted.window_stats(lo + a, hi + a)[1]
    rhs = (base.window_stats(lo, hi)[1]
           + a * base.window_stats(lo, hi)[0])
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(lo=st.floats(-50, 50), width=st.floats(0, 60))
@settings(max_examples=50, deadline=None)
def test_negation_antisymmetry_comb(lo, width):
    m = ml.comb_ex2()
    hi = lo + width
    neg = m.negate()
    assert neg.window_stats(-hi, -lo)[1] == \
        -m.window_stats(lo, hi)[1]


def test_scale_wrapper_moment():
    m = ml.comb_ex2().scale(3.0)
    # atom originally at 2 (weight 1/4) now sits at 6
    assert m.window_stats(5, 7)[1] == pytest.approx(6 * 0.25)
    neg = ml.comb_ex2().scale(-1.0)
    assert neg.window_stats(-3, -1)[1] == pytest.approx(-2 * 0.25)


def test_scale_zero_rejected():
    with pytest.raises(ml.MeasureError):
        ml.gaussian().scale(0.0)


@given(lo=st.floats(-40, 40), w1=st.floats(0.1, 20), w2=st.floats(0.1, 20))
@settings(max_examples=60, deadline=None)
def test_closed_window_additivity(lo, w1, w2):
    mid, hi = lo + w1, lo + w1 + w2
    comb = ml.comb_ex1()
    atom_locs = {a.location for a in comb.atoms_within(abs(hi) + abs(lo) + 10)}
    assume(mid not in atom_locs)
    left = comb.window_stats(lo, mid)[1]
    right = comb.window_stats(mid, hi)[1]
    # the split double-counts nothing when no atom sits at mid
    whole = comb.window_stats(lo, hi)[1]
    assert whole == pytest.approx(left + right, abs=1e-12)

    dens = ml.cauchy()
    whole_d = dens.window_stats(lo, hi)[1]
    split_d = (dens.window_stats(lo, mid)[1]
               + dens.window_stats(mid, hi)[1])
    assert whole_d == pytest.approx(split_d, abs=2e-10)


# ---------------------------------------------------------------------------
# Quadrature fallback and failure diagnostics
# ---------------------------------------------------------------------------

def test_plain_density_quadrature():
    m = ml.DensityMeasure("triangle", lambda x: max(0.0, 1.0 - abs(x)),
                          support=(-1.0, 1.0))
    assert m.window_stats(-1, 1)[0] == pytest.approx(1.0, abs=1e-9)
    assert m.window_stats(0, 1)[1] == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_quadrature_failure_carries_partial_estimate(monkeypatch):
    # three subdivisions fail fast; the default limit fails the same way, slowly
    monkeypatch.setattr(measures, "_QUAD_LIMIT", 3)
    # construction integrates the density over its support, and fails there
    with pytest.raises(ml.QuadratureError) as err:
        ml.DensityMeasure(
            "rough", lambda x: (1 + math.sin(500.0 / (abs(x) + 1e-3))) / 2.774631637,
            support=(-1.0, 1.0))
    assert math.isfinite(err.value.estimate)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def test_measure_document_round_trip():
    doc = {"family": "shift", "a": 2.0,
           "inner": {"family": "scale", "factor": 3.0,
                     "inner": {"family": "cauchy", "loc": 0.0, "scale": 1.0}}}
    m = ml.measure_from_document(doc)
    assert isinstance(m, Affine) and (m.a, m.s) == (2.0, 1.0)
    # law of 3X + 2: symmetric around 2
    assert m.window_stats(2 - 5, 2 + 5)[1] == pytest.approx(
        2 * m.window_stats(-3, 7)[0], abs=1e-12)


def test_measure_document_rejects_unknown_keys():
    with pytest.raises(ml.MeasureError):
        ml.measure_from_document({"family": "gaussian", "mu": 0, "sd": 1})
    with pytest.raises(ml.MeasureError):
        ml.measure_from_document({"family": "comb_ex9"})


@pytest.mark.parametrize("doc, key", [
    ({"family": "shift", "a": 1.0}, "inner"),
    ({"family": "scale", "inner": {"family": "cauchy"}}, "factor"),
    ({"family": "negate", "inner": {"family": "cauchy"}, "a": 1.0}, "'a'"),
    ({"family": "shift", "a": 1.0, "inner": {"family": "cauchy", "gamma": 2.0}}, "gamma"),
    ({"family": ["cauchy"]}, "unknown measure family"),
])
def test_wrapper_documents_name_a_missing_or_unknown_key(doc, key):
    with pytest.raises(ml.MeasureError, match=key):
        ml.measure_from_document(doc)


def test_make_measure_builds_wrappers_from_the_same_table():
    m = ml.make_measure("scale", inner=ml.make_measure("cauchy", loc=1.0), factor=-2.0)
    lo, hi = np.array([-4.0, -3.0, -1e3]), np.array([0.0, 5.0, 1.0])
    np.testing.assert_allclose(m.window_stats(lo, hi), ml.cauchy(-2.0, 2.0).window_stats(lo, hi),
                               rtol=1e-14)
    with pytest.raises(ml.MeasureError, match="inner"):
        ml.make_measure("negate")


# ---------------------------------------------------------------------------
# Tail-bound contracts of the built-in combs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["comb_ex1", "comb_ex2", "comb_ex4", "comb_ex5"])
def test_tail_mass_bounds_are_nonincreasing_and_honest(family):
    m = ml.make_measure(family)
    bounds = [m.tail_mass_bound(n) for n in range(0, 40)]
    assert all(b >= 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    # the bound at n really covers the mass of all later blocks
    weights_by_block = [m._block(n)[1] for n in range(1, 60)]
    for n in (1, 5, 10):
        later = sum(w for weights in weights_by_block[n:] for w in weights)
        assert later <= m.tail_mass_bound(n) + 1e-15


@pytest.mark.parametrize("build", [
    lambda: ml.gaussian(sigma=math.inf),
    lambda: ml.gaussian(mu=math.nan),
    lambda: ml.cauchy(loc=math.nan),
    lambda: ml.cauchy(scale=math.inf),
    lambda: ml.power_tail(math.nan, 1.5),
    lambda: ml.integer_power_comb(math.inf),
    lambda: ml.cauchy().shift(math.nan),
    lambda: ml.cauchy().scale(math.inf),
    lambda: ml.comb_ex2().shift(-math.inf),
    lambda: Affine(ml.gaussian(), 0.0, 0.0),
])
def test_nonfinite_parameters_rejected_at_construction(build):
    with pytest.raises(ml.MeasureError):
        build()


def test_negative_scale_counts_a_mapped_atom_on_either_endpoint():
    # under x -> -3x the comb_ex2 atoms at 2 (weight 1/4) and 4 (weight 1/8)
    # sit at -6 and -12: one on a lower endpoint, one on an upper endpoint
    m = ml.comb_ex2().scale(-3.0)
    assert m.window_stats(-6.0, -1.0)[0] == 0.25
    assert m.window_stats(-20.0, -12.0)[0] == 0.125
    assert m.window_stats(-6.0, -6.0)[0] == 0.25
    assert m.window_stats(-6.0, -1.0)[1] == -1.5


@pytest.mark.parametrize("call", [
    lambda: ml.comb_ex2().window_stats(-math.inf, 1.0),
    lambda: ml.comb_ex4().atoms_within(math.inf),
    lambda: ml.asym_partial_mean(ml.comb_ex2(), 0.0, 0.0, 1.0, math.inf),
], ids=["window", "atoms_within", "asym_partial_mean"])
def test_infinite_radius_on_an_infinite_comb_is_refused(call):
    # enumeration would run until the atom locations overflow
    with pytest.raises(ml.MeasureError, match="radius inf"):
        call()


def test_infinite_radius_tail_of_an_infinite_comb_reads_zero():
    # P(|X| > inf) is 0 for every law, so the comb is not asked to enumerate
    assert ml.comb_ex1().tail_probability(math.inf) == 0.0
    assert ml.comb_ex2().tail_probability(np.array([math.inf, 2.0])).tolist() == [0.0, 0.5]


def test_tail_probability_is_elementwise():
    for m in (ml.cauchy(0.5, 2.0), ml.gaussian(1.0, 3.0), ml.power_tail(1.5, 1.8),
              ml.comb_ex2(), ml.integer_power_comb(3.0), ml.cauchy().shift(2.0)):
        ts = np.array([-1.0, 0.0, 3.5, 1e4])
        batch = m.tail_probability(ts)
        assert batch.shape == ts.shape
        for t, p in zip(ts, batch):
            assert m.tail_probability(t) == p
        assert batch[0] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# The tail contract: one set of edge rules for every law
# ---------------------------------------------------------------------------

_TAIL_LAWS = {
    **{family: (lambda family=family: ml.make_measure(family))
       for family in ("comb_ex1", "comb_ex2", "comb_ex4", "comb_ex5", "gaussian", "cauchy")},
    "gaussian(2, 0.5)": lambda: ml.gaussian(2.0, 0.5),
    "cauchy(-3, 2)": lambda: ml.cauchy(-3.0, 2.0),
    "power_tail": lambda: ml.power_tail(1.5, 1.8),
    "power_tail(a = b)": lambda: ml.power_tail(1.3, 1.3),
    "empirical": lambda: ml.EmpiricalMeasure([-4.0, 0.0, 0.5, 1.0, 7.0, 1e3]),
    "integer_power_comb": lambda: ml.integer_power_comb(2.5),
    "finite_comb": lambda: ml.finite_comb([ml.Atom(-2.0, 0.25), ml.Atom(3.0, 0.75)]),
    "user density": lambda: ml.DensityMeasure("triangle", lambda x: max(0.0, 1.0 - abs(x)),
                                              support=(-1.0, 1.0)),
}
_TAIL_WRAPS = {
    "plain": lambda m: m,
    "shift": lambda m: m.shift(2.5),
    "scale": lambda m: m.scale(0.3),
    "negate": lambda m: m.negate(),
}


def test_the_tail_contract_covers_every_family():
    assert set(measures._FAMILIES) - {"shift", "scale", "negate"} <= set(_TAIL_LAWS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("wrap", sorted(_TAIL_WRAPS))
@pytest.mark.parametrize("law", sorted(_TAIL_LAWS))
def test_tail_contract(law, wrap):
    m = _TAIL_WRAPS[wrap](_TAIL_LAWS[law]())
    rng = np.random.default_rng(30)
    ts = np.concatenate([[0.0, -0.0, 0.5, 1.0, 1e15, 1e300], 10.0 ** rng.uniform(-3.0, 12.0, 20)])
    values = m.tail_probability(ts)
    assert np.all((values >= 0.0) & (values <= 1.0))
    negative = np.concatenate([[-math.inf, -1e300, -1.0, -1e-300], -ts[2:]])
    assert m.tail_probability(negative).tolist() == [1.0] * len(negative)
    assert m.tail_probability(math.inf) == 0.0
    assert m.tail_probability(np.array([[math.inf], [-1.0]])).tolist() == [[0.0], [1.0]]
    for t in (math.nan, [1.0, math.nan]):
        with pytest.raises(ml.MeasureError, match="got nan"):
            m.tail_probability(t)
    curve = m.tail_probability(genmean._TAIL_SCHEDULE)
    assert np.all(np.diff(curve) <= 1e-15)


def test_a_scale_that_overflows_t_reads_zero():
    # t / s overflows to inf, where every law's tail is 0: [-t, t] maps to the
    # whole line, which is not asked of the inner law (an infinite comb refuses
    # it).  A scale inside a shift overflows the same way, warning nothing.
    for law in (ml.cauchy(), ml.comb_ex2(), ml.power_tail(1.5, 1.8)):
        assert law.scale(1e-300).tail_probability(1e300) == 0.0
    for law in (ml.cauchy(), ml.gaussian(), ml.power_tail(1.5, 1.8)):
        assert law.scale(1e-3).shift(1.0).tail_probability(1e307) == 0.0


def test_a_window_past_float_range_in_the_laws_frame_is_answered_or_refused():
    # (x - loc) / scale overflows.  A Gaussian reads that end as +-inf, where its
    # mass and moment are exact; a Cauchy's moment diverges out there, and an
    # affine map would hand its inner law a wider window, so those refuse.
    # None warns: the ini makes a RuntimeWarning an error
    narrow = ml.gaussian(1.0, 1e-3)
    assert narrow.window_stats(-1e307, 1e307) == (1.0, 1.0)
    assert narrow.window_stats(1e307, 1.5e307) == (0.0, 0.0)
    for m in (ml.cauchy(1.0, 1e-3), ml.cauchy().scale(1e-3).shift(1.0),
              ml.gaussian().scale(1e-3).shift(1.0), ml.power_tail(1.5, 1.8).scale(1e-3)):
        with pytest.raises(ml.MeasureError, match="past float range"):
            m.window_stats(-1e307, 1e307)
    # ends that are infinite to begin with are read as before
    assert ml.cauchy(1.0, 1e-3).window_stats(0.0, math.inf)[1] == math.inf


# ---------------------------------------------------------------------------
# One-sided tails: the mass outside (-inf, t] and outside [-t, inf)
# ---------------------------------------------------------------------------

def _one_sided(m, t):
    """(P(Y > t), P(Y < -t)) of the law m over an array t, each the mass
    outside a window with one infinite end."""
    inf = np.full(t.shape, math.inf)
    return m._outside(-inf, t), m._outside(-t, inf)


# y = s * x + a: (wrap, s, a)
_ONE_SIDED_WRAPS = {
    "plain": (lambda m: m, 1.0, 0.0),
    "shift": (lambda m: m.shift(2.5), 1.0, 2.5),
    "scale": (lambda m: m.scale(-0.3), -0.3, 0.0),
    "negate-scale-shift": (lambda m: m.negate().scale(1.7).shift(-2.0), -1.7, -2.0),
}


def _gaussian_upper(z):  # P(Z > 40) is about 4e-350, past any float tail asked here
    return mp.erfc(z / mp.sqrt(2)) / 2 if z < 40 else mp.mpf(0)


def _cauchy_upper(z):
    return mp.atan(1 / z) / mp.pi if z > 0 else mp.mpf(0.5) - mp.atan(z) / mp.pi


@pytest.mark.parametrize("wrap", sorted(_ONE_SIDED_WRAPS))
@pytest.mark.parametrize("law, loc, scale, upper", [
    pytest.param(ml.gaussian, 1.0, 2.0, _gaussian_upper, id="gaussian(1, 2)"),
    pytest.param(ml.cauchy, -3.0, 0.5, _cauchy_upper, id="cauchy(-3, 0.5)")])
def test_one_sided_tails_of_a_location_scale_law(law, loc, scale, upper, wrap):
    # Y = s (loc + scale Z) + a for a symmetric Z, so P(Y > t) = P(Z > (t - loc') / scale')
    # and P(Y < -t) = P(Z > (t + loc') / scale'), loc' = s loc + a, scale' = |s| scale
    build, s, a = _ONE_SIDED_WRAPS[wrap]
    # t = 10^k, k = 0..300, and a grid where a gaussian's tails are above 1e-300
    t = np.concatenate([10.0 ** np.arange(301), np.linspace(0.5, 60.0, 120)])
    got = _one_sided(build(law(loc, scale)), t)
    with mp.workdps(30):
        loc2, scale2 = mp.mpf(s) * loc + a, abs(mp.mpf(s)) * scale
        want = [np.array([float(upper((mp.mpf(x) + sign * loc2) / scale2)) for x in t])
                for sign in (-1, 1)]
    for g, w in zip(got, want):
        keep = w > 1e-300
        assert keep.sum() >= 40
        np.testing.assert_allclose(g[keep], w[keep], rtol=1e-12, atol=0)


def _one_sided_reference(above, below, s, a, t):
    """(P(Y > t), P(Y < -t)) over t for Y = s X + a, s = +-1, from mpmath
    functions ``above(x)`` = P(X > x) and ``below(x)`` = P(X < x)."""
    t = [mp.mpf(x) for x in t]
    return ([float(above(x - a) if s > 0 else below(a - x)) for x in t],
            [float(below(-x - a) if s > 0 else above(a + x)) for x in t])


@pytest.mark.parametrize("s, a", [(1.0, 0.0), (1.0, 2.5), (1.0, -4.0), (-1.0, 0.0)])
def test_one_sided_tails_of_the_integer_power_comb(s, a):
    p = 2.5
    m = ml.integer_power_comb(p)
    t = np.array([0.5, 3.0, 1e3, 1e6])
    got = _one_sided(m.negate() if s < 0 else m.shift(a), t)
    with mp.workdps(30):
        def above(x):  # P(X > x) for X on the positive integers, weight n^-p / zeta(p)
            return mp.zeta(p, max(mp.floor(x) + 1, 1)) / mp.zeta(p)

        def below(x):  # P(X < x)
            return 1 - mp.zeta(p, max(mp.ceil(x), 1)) / mp.zeta(p)

        want = _one_sided_reference(above, below, s, a, t)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("s, a", [(1.0, 2.5), (1.0, -2.5), (-1.0, 0.0)])
def test_one_sided_tails_of_power_tail(s, a):
    m = ml.power_tail(1.5, 1.8)
    t = np.array([1.0, 2.5, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    got = _one_sided(m.negate() if s < 0 else m.shift(a), t)
    with mp.workdps(30):
        C, D = ((2 * (mp.pi / e) / mp.sin(mp.pi / e)) ** e for e in (mp.mpf(1.5), mp.mpf(1.8)))

        def pdf(y):
            return 1 / (1 + C * y ** 1.5) if y >= 0 else 1 / (1 + D * (-y) ** 1.8)

        def above(x):  # P(X > x)
            return mp.quad(pdf, [x, 0, mp.inf] if x < 0 else [x, mp.inf])

        def below(x):  # P(X < x)
            return mp.quad(pdf, [-mp.inf, 0, x] if x > 0 else [-mp.inf, x])

        want = _one_sided_reference(above, below, s, a, t)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=0)


_ATOMIC_TAIL_LAWS = sorted(law for law, build in _TAIL_LAWS.items() if build().is_atomic)


@pytest.mark.parametrize("wrap", sorted(_TAIL_WRAPS))
@pytest.mark.parametrize("law", _ATOMIC_TAIL_LAWS)
def test_the_mass_outside_a_window_completes_its_mass(law, wrap):
    m = _TAIL_WRAPS[wrap](_TAIL_LAWS[law]())
    lo = np.array([-3.0, 0.5, -1e3, 2.0, -0.25, 1.5, 7.0])
    hi = np.array([5.0, 0.5, 2.0, 1e6, 7.0, 1e3, 7.0])
    total = m._outside(lo, hi) + m.window_stats(lo, hi)[0]
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)


def test_integer_power_comb_has_all_its_mass_beyond_any_t_below_one():
    m = ml.integer_power_comb(3.0)
    assert m.tail_probability(np.array([0.0, 0.5, 0.999])).tolist() == [1.0, 1.0, 1.0]
    assert m.tail_probability(1.0) == pytest.approx(1.0 - 1.0 / m.zeta_p, rel=1e-12)


def test_a_heavy_tailed_user_density_constructs():
    # construction integrates the pdf alone; x * pdf diverges over the whole line
    law = ml.power_tail(1.5, 1.8)
    m = ml.DensityMeasure("pt", law.pdf)
    for t in (10.0, 1e3):
        assert m.tail_probability(t) == pytest.approx(law.tail_probability(t), rel=1e-9, abs=0)


@pytest.mark.parametrize("support", [(math.nan, 1.0), (1.0, -1.0)])
def test_a_user_density_refuses_a_nan_or_reversed_support(support):
    with pytest.raises(ml.MeasureError, match="support requires lo <= hi"):
        ml.DensityMeasure("uniform", lambda x: 0.5, support=support)
