"""Samplers, deviation-probability experiments, and the stability demo."""

import math

import numpy as np
import pytest

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
    rep = ml.wlln_experiment(s, m=0.0, epsilon=0.1, n_schedule=[100, 1000],
                             replications=200)
    # P(|S_n/n| > 0.1) = 2 Phi(-0.1 sqrt(n)): ~0.32 at n=100, ~0.002 at n=1000
    assert rep.fractions[0] > rep.fractions[1]
    assert rep.fractions[1] <= 0.02


def test_wlln_cauchy_fraction_is_flat_at_one_half():
    s = ml.build_sampler(ml.cauchy(), seed=0)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=1.0, n_schedule=[100, 1000],
                             replications=300)
    for frac in rep.fractions:
        assert frac == pytest.approx(0.5, abs=0.1)


def test_wlln_cauchy_epsilon_half_oracle():
    # S_n/n is again standard Cauchy: P(|X| > 1/2) = 1 - (2/pi) arctan(1/2)
    s = ml.build_sampler(ml.cauchy(), seed=0)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=0.5, n_schedule=[200],
                             replications=500)
    expected = 1 - (2 / math.pi) * math.atan(0.5)
    assert rep.fractions[0] == pytest.approx(expected, abs=0.07)


def test_wlln_needs_enough_replications():
    s = ml.build_sampler(ml.gaussian(), seed=0)
    with pytest.raises(ValueError):
        ml.wlln_experiment(s, 0.0, 0.1, [100], replications=50)


def test_wlln_report_is_order_independent():
    s = ml.build_sampler(ml.cauchy(), seed=5)
    rep = ml.wlln_experiment(s, m=0.0, epsilon=1.0, n_schedule=[50, 100],
                             replications=100)
    # recompute each fraction with the replication loop reversed
    for i, n in enumerate(rep.n_values):
        deviations = 0
        for j in reversed(range(rep.replications)):
            x = s.draw(n, stream=(1, i, j))
            if abs(float(np.mean(x))) > rep.epsilon:
                deviations += 1
        assert deviations / rep.replications == rep.fractions[i]


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
    from meanlab.measures import Atom, AtomicComb

    heavy = AtomicComb(
        "plateau",
        block=lambda n: (Atom(float(2 ** n), 0.5 ** n * 0.499999999),),
        # never falls below the 1e-12 sampling cutoff
        tail_mass_bound=lambda n: max(1e-10, 0.5 ** n),
        location_floor=lambda n: float(2 ** (n + 1)),
        validate=False)
    with pytest.raises(ml.MeasureError, match="cutoff"):
        ml.build_sampler(heavy, seed=0)
