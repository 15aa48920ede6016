"""Window arithmetic of the measure representations."""

import math

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
    assert m.location_scale() == ("cauchy", -2.0, 2.0)
    with pytest.raises(ml.MeasureError, match="inner"):
        ml.make_measure("negate")


# ---------------------------------------------------------------------------
# Location-scale laws
# ---------------------------------------------------------------------------

@given(loc=st.floats(-1e6, 1e6), gamma=st.floats(1e-3, 1e3),
       s=st.floats(-1e3, 1e3).filter(lambda v: v != 0.0), a=st.floats(-1e6, 1e6))
@settings(max_examples=60, deadline=None)
def test_location_scale_composes_through_affine_wrappers(loc, gamma, s, a):
    m = ml.cauchy(loc, gamma).negate().scale(s).shift(a)
    assert m.location_scale() == ("cauchy", s * -loc + a, abs(s) * gamma)


def test_location_scale_is_none_outside_the_location_scale_families():
    assert ml.gaussian(1.0, 2.0).location_scale() == ("gaussian", 1.0, 2.0)
    for m in (ml.power_tail(1.5, 1.8), ml.comb_ex2(), ml.integer_power_comb(3.0),
              ml.EmpiricalMeasure([1.0, 2.0]), ml.power_tail(1.5, 1.8).shift(1.0)):
        assert m.location_scale() is None


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
    # t / s overflows to inf, where every law's tail is 0
    for law in (ml.cauchy(), ml.comb_ex2(), ml.power_tail(1.5, 1.8)):
        assert law.scale(1e-300).tail_probability(1e300) == 0.0


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
