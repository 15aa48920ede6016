"""Samplers, deviation-probability experiments, and the stability demo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanlab as ml


def test_cauchy_sampler_matches_closed_form_cdf():
    s = ml.build_sampler(ml.cauchy(), seed=42)
    x = s.draw(100_000)
    # P(|X| <= 1) = 1/2
    assert np.mean(np.abs(x) <= 1.0) == pytest.approx(0.5, abs=0.01)


def test_gaussian_sampler_mean():
    s = ml.build_sampler(ml.gaussian(0, 1), seed=42)
    x = s.draw(100_000)
    assert abs(x.mean()) <= 0.02


def test_comb_sampler_atom_frequencies():
    s = ml.build_sampler(ml.comb_ex2(), seed=42)
    x = s.draw(100_000)
    # weights are 2^-(n+1): 1/4 at +-2, 1/8 at +-4
    assert np.mean(x == 2.0) == pytest.approx(0.25, abs=0.005)
    assert np.mean(x == 4.0) == pytest.approx(0.125, abs=0.005)
    assert s.truncation_bias <= 1e-12


def test_affine_wrapped_sampler():
    s = ml.build_sampler(ml.gaussian(0, 1).scale(2.0).shift(5.0), seed=1)
    x = s.draw(50_000)
    assert x.mean() == pytest.approx(5.0, abs=0.05)
    assert x.std() == pytest.approx(2.0, abs=0.05)


def test_empirical_sampler_draws_from_the_sample():
    s = ml.build_sampler(ml.EmpiricalMeasure([1.0, 2.0, 4.0]), seed=3)
    x = s.draw(1000)
    assert set(np.unique(x)) <= {1.0, 2.0, 4.0}


def test_sampler_determinism():
    a = ml.build_sampler(ml.cauchy(), seed=9).draw(1000)
    b = ml.build_sampler(ml.cauchy(), seed=9).draw(1000)
    assert np.array_equal(a, b)
    c = ml.build_sampler(ml.cauchy(), seed=10).draw(1000)
    assert not np.array_equal(a, c)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        ml.build_sampler(ml.gaussian(), seed=0).draw(0)


# ---------------------------------------------------------------------------
# Deviation-probability experiment
# ---------------------------------------------------------------------------

def test_wlln_gaussian_fraction_shrinks():
    s = ml.build_sampler(ml.gaussian(0, 1), seed=0)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=0.1, n_values=[100, 1000],
                             replications=200)
    # P(|S_n/n| > 0.1) = 2 Phi(-0.1 sqrt(n)): ~0.32 at n=100, ~0.002 at n=1000
    assert rep.fractions[0] > rep.fractions[1]
    assert rep.fractions[1] <= 0.02


def test_wlln_cauchy_fraction_is_flat_at_one_half():
    s = ml.build_sampler(ml.cauchy(), seed=0)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=1.0, n_values=[100, 1000],
                             replications=300)
    for frac in rep.fractions:
        assert frac == pytest.approx(0.5, abs=0.1)


def test_wlln_cauchy_epsilon_half_oracle():
    # S_n/n is again standard Cauchy: P(|X| > 1/2) = 1 - (2/pi) arctan(1/2)
    s = ml.build_sampler(ml.cauchy(), seed=0)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=0.5, n_values=[200],
                             replications=500)
    expected = 1 - (2 / math.pi) * math.atan(0.5)
    assert rep.fractions[0] == pytest.approx(expected, abs=0.07)


def test_wlln_needs_enough_replications():
    s = ml.build_sampler(ml.gaussian(), seed=0)
    with pytest.raises(ValueError):
        ml.wlln_experiment(s, 0.0, 0.1, [100], replications=50)


def _count_generators(monkeypatch):
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


def _direct_rows(measure, key, rows, n):
    """All rows of one cell at once, from the generator keyed by ``key``."""
    u = np.random.default_rng(key).random((rows, n))
    return measure.sampler()[0](np.clip(u, 1e-300, 1.0 - 1e-16))


_LAWS = {"cauchy": lambda: ml.cauchy(0.5, 2.0), "gaussian": lambda: ml.gaussian(1.0, 3.0),
         "comb_ex2": ml.comb_ex2}


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_reports_are_the_rows_of_one_generator_per_cell(name):
    m = _LAWS[name]()
    s = ml.build_sampler(m, seed=5)
    rep = ml.wlln_experiment(s, m=1.0, epsilon=1.5, n_values=[1, 7, 300],
                             replications=120)
    for i, n in enumerate(rep.n_values):
        means = _direct_rows(m, [5, 1, i], 120, n).mean(axis=1)
        assert np.count_nonzero(np.abs(means - 1.0) > 1.5) / 120 == rep.fractions[i]
    stab = ml.cauchy_stability_demo(s, n=30, replications=1000)
    means = _direct_rows(m, [5, 2, 1], 1000, 30).mean(axis=1)
    singles = _direct_rows(m, [5, 2, 2], 1000, 1)[:, 0]
    assert stab.distance == ml.lln.two_sample_sup_distance(means, singles)


@pytest.mark.parametrize("block", [1, 1000 * 300])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, block):
    s = ml.build_sampler(ml.cauchy(), seed=8)

    def reports():
        return (ml.wlln_experiment(s, m=0.0, epsilon=1.0, n_values=[3, 300],
                                   replications=1000),
                ml.cauchy_stability_demo(s, n=300, replications=1000))

    default = reports()
    monkeypatch.setattr(ml.lln, "_BLOCK", block)
    assert reports() == default


def test_one_generator_per_cell(monkeypatch):
    s = ml.build_sampler(ml.gaussian(), seed=4)
    made = _count_generators(monkeypatch)
    ml.wlln_experiment(s, m=0.0, epsilon=0.1, n_values=[10, 100, 1000], replications=300)
    assert made == [([4, 1, 0],), ([4, 1, 1],), ([4, 1, 2],)]
    made.clear()
    ml.cauchy_stability_demo(s, n=100, replications=1000)
    assert made == [([4, 2, 1],), ([4, 2, 2],)]


def test_wlln_memory_is_bounded_by_the_block():
    s = ml.build_sampler(ml.cauchy(), seed=0)
    tracemalloc.start()
    try:
        ml.wlln_experiment(s, m=0.0, epsilon=1.0, n_values=[10_000], replications=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # the whole 1000 x 10,000 cell would be 80 MB


@pytest.mark.parametrize("run", [
    lambda s: ml.wlln_experiment(s, m=1.0, epsilon=1.0, n_values=[300], replications=1000),
    lambda s: ml.cauchy_stability_demo(s, n=110, replications=1000),
], ids=["wlln", "stability"])
def test_draws_are_transformed_in_the_block_buffer(run):
    # one buffer of 65,000 doubles (520,000 bytes) per call, transformed in
    # place through the quantile and both affine levels; a temporary per
    # step would hold several such blocks at once
    s = ml.build_sampler(ml.cauchy().scale(2.0).shift(1.0), seed=0)
    run(s)  # the modules a first call imports are no part of its draws
    tracemalloc.start()
    try:
        run(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


@pytest.mark.parametrize("bad", [
    {"m": math.inf}, {"m": math.nan}, {"epsilon": -1.0}, {"epsilon": 0.0},
    {"epsilon": math.nan}, {"epsilon": math.inf}, {"n_values": []},
    {"n_values": [10, 0]},
])
def test_wlln_rejects_bad_input_before_drawing(monkeypatch, bad):
    s = ml.build_sampler(ml.cauchy(), seed=0)
    made = _count_generators(monkeypatch)
    args = {"m": 0.0, "epsilon": 1.0, "n_values": [10], "replications": 100, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        ml.wlln_experiment(s, **args)
    assert made == []


@pytest.mark.parametrize("n", [0, -3])
def test_stability_rejects_sizes_below_one_before_drawing(monkeypatch, n):
    s = ml.build_sampler(ml.cauchy(), seed=0)
    made = _count_generators(monkeypatch)
    with pytest.raises(ValueError, match="n must be >= 1"):
        ml.cauchy_stability_demo(s, n=n, replications=1000)
    assert made == []


# ---------------------------------------------------------------------------
# Stability demo
# ---------------------------------------------------------------------------

def test_stability_cauchy_means_look_like_single_draws():
    s = ml.build_sampler(ml.cauchy(), seed=0)
    rep = ml.cauchy_stability_demo(s, n=10, replications=1000)
    assert rep.distance <= 0.08  # two-sample noise scale 1.63 sqrt(2/R) = 0.073


def test_stability_gaussian_control_is_macroscopic():
    # N(0, 1/100) vs N(0, 1): analytic sup CDF distance is 0.399
    s = ml.build_sampler(ml.gaussian(0, 1), seed=0)
    rep = ml.cauchy_stability_demo(s, n=100, replications=1500)
    assert rep.distance >= 0.35


def test_stability_needs_enough_replications():
    s = ml.build_sampler(ml.cauchy(), seed=0)
    with pytest.raises(ValueError):
        ml.cauchy_stability_demo(s, n=10, replications=10)


def test_two_sample_sup_distance_extremes():
    same = np.arange(10.0)
    assert ml.lln.two_sample_sup_distance(same, same) == 0.0 if hasattr(ml, "lln") else True
    from meanlab.lln import two_sample_sup_distance
    assert two_sample_sup_distance(np.zeros(5), np.ones(5)) == 1.0


# ---------------------------------------------------------------------------
# Running-mean trajectories
# ---------------------------------------------------------------------------

def test_trajectory_matches_fsum_prefix_means():
    s = ml.build_sampler(ml.gaussian(1.0, 1.0), seed=2)
    ns, means = ml.running_mean_trajectory(s, 500)
    x = s.draw(500, stream=(3,))
    for k in (0, 9, 99, 499):
        exact = math.fsum(x[:k + 1]) / (k + 1)
        assert means[k] == pytest.approx(exact, rel=1e-15)
    assert ns[0] == 1 and ns[-1] == 500


def test_trajectory_is_the_array_kahan_loop_bit_for_bit():
    s = ml.build_sampler(ml.cauchy(1.0, 3.0), seed=6)
    x = s.draw(3000, stream=(3,))
    want = np.empty(3000)
    total, comp = 0.0, 0.0
    for k in range(3000):
        y = x[k] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        want[k] = total / (k + 1)
    _, means = ml.running_mean_trajectory(s, 3000)
    assert means.tobytes() == want.tobytes()


def test_trajectory_settles_for_integrable_measures():
    s = ml.build_sampler(ml.gaussian(2.0, 1.0), seed=4)
    _, means = ml.running_mean_trajectory(s, 20_000)
    # 5 sigma / sqrt(n) envelope at the endpoint
    assert abs(means[-1] - 2.0) <= 5.0 / math.sqrt(20_000)


def test_sampler_window_masses_within_five_sigma():
    n = 40_000
    for measure in (ml.comb_ex2(), ml.gaussian(0, 1)):
        s = ml.build_sampler(measure, seed=13)
        x = s.draw(n)
        for lo, hi in ((-2.0, 2.0), (0.5, 4.5), (-10.0, -0.5)):
            p = measure.window_stats(lo, hi)[0]
            hat = float(np.mean((x >= lo) & (x <= hi)))
            band = 5.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(hat - p) <= band + 1e-9, (measure.family, lo, hi)


def test_comb_sampler_cutoff_failure_is_a_construction_error():
    # a valid comb of total mass 1 whose tail bound stops at 1e-10: below the
    # MASS_TOL / 2 construction needs, never below the 1e-12 sampling cutoff
    heavy = ml.AtomicComb(
        "plateau",
        block=lambda n: ((float(2 ** n),), (0.5 ** n,)),
        tail_mass_bound=lambda n: max(1e-10, 0.5 ** n),
        location_floor=lambda n: float(2 ** (n + 1)))
    with pytest.raises(ml.MeasureError, match="cutoff"):
        ml.build_sampler(heavy, seed=0)


# ---------------------------------------------------------------------------
# Pinned draws: each measure class defines its own inverse transform
# ---------------------------------------------------------------------------

# draw(6, stream=(5, 2)) at seed 12 and the truncation bias, as recorded
# before the samplers moved into the measure classes
PINNED_DRAWS = {
    "cauchy": (lambda: ml.cauchy(), [
        -0.019104641409261273, -0.40287615338760385, -0.25865169892534356,
        762.8515470441866, -1.4275457379718415, -1.7386505736498672], 0.0),
    "cauchy_loc_scale": (lambda: ml.cauchy(2.5, 0.5), [
        2.4904476792953694, 2.298561923306198, 2.370674150537328,
        383.9257735220933, 1.7862271310140794, 1.6306747131750665], 0.0),
    "gaussian": (lambda: ml.gaussian(), [
        -0.015242034439278565, -0.3104941311119, -0.2033409730507382,
        3.3410819252485666, -0.8614049246953643, -0.9695197278252887], 0.0),
    "gaussian_mu_sigma": (lambda: ml.gaussian(-1.0, 3.0), [
        -1.0457261033178358, -1.9314823933357, -1.6100229191522146,
        9.0232457757457, -3.5842147740860932, -3.908559183475866], 0.0),
    "cauchy_negate": (lambda: ml.cauchy(1.0, 2.0).negate(), [
        -0.9617907171814775, -0.1942476932247923, -0.48269660214931287,
        -1526.7030940883733, 1.855091475943683, 2.4773011472997344], 0.0),
    "gaussian_scale_neg3": (lambda: ml.gaussian(0.5, 2.0).scale(-3.0), [
        -1.4085477933643284, 0.3629647866714, -0.2799541616955708,
        -21.5464915514914, 3.668429548172186, 4.317118366951732], 0.0),
    "cauchy_3_levels": (lambda: ml.cauchy(0.3, 1.5).negate().scale(2.0).shift(-1.0), [
        -1.5426860757722163, -0.39137153983718853, -0.8240449032239693,
        -2290.15464113256, 2.6826372139155246, 3.615951720949602], 0.0),
    "comb_ex1": (lambda: ml.comb_ex1(), [
        -2.0, -2.0, -2.0, -2048.0, 4.0, 4.0], 9.094947017729282e-13),
    "comb_ex4": (lambda: ml.comb_ex4(), [
        -9.0, 9.0, 9.0, 3486784401.0, 3.0, 3.0], 7.074620124652989e-13),
    "comb_ex5_negate_shift": (lambda: ml.comb_ex5().negate().shift(2.0), [
        11.0, -7.5, -7.5, -3486784399.05, 5.0, -2.0], 7.564854866056122e-13),
    "empirical": (lambda: ml.EmpiricalMeasure([3.0, -1.0, 0.5, 7.25, 2.0]), [
        2.0, 0.5, 2.0, 7.25, -1.0, -1.0], 0.0),
    "integer_power_comb_6": (lambda: ml.integer_power_comb(6.0), [
        1.0, 1.0, 1.0, 3.0, 1.0, 1.0], 9.844771218747313e-13),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_pinned_draws(name):
    build, draws, bias = PINNED_DRAWS[name]
    s = ml.build_sampler(build(), seed=12)
    np.testing.assert_array_equal(s.draw(6, stream=(5, 2)), draws)
    assert s.truncation_bias == bias


_BASES = {
    "cauchy": lambda: ml.cauchy(0.5, 2.0),
    "gaussian": lambda: ml.gaussian(-1.0, 0.5),
    "comb_ex4": ml.comb_ex4,
    "empirical": lambda: ml.EmpiricalMeasure([3.0, -1.0, 0.5, 7.25]),
}


@given(name=st.sampled_from(sorted(_BASES)),
       a=st.floats(-1e6, 1e6),
       s=st.floats(-1e3, 1e3).filter(lambda v: v != 0.0),
       seed=st.integers(0, 2 ** 32 - 1), stream=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_affine_draws_map_the_inner_draws(name, a, s, seed, stream):
    m = _BASES[name]()
    inner = ml.build_sampler(m, seed=seed).draw(16, stream=(stream,))
    outer = ml.build_sampler(m.shift(a).scale(s), seed=seed).draw(16, stream=(stream,))
    np.testing.assert_array_equal(outer, s * (inner + a))


def test_family_without_sampler_is_refused_at_build():
    with pytest.raises(ml.MeasureError, match="no sampler for measure family 'power_tail'"):
        ml.build_sampler(ml.power_tail(1.5, 1.8).shift(1.0), seed=0)
