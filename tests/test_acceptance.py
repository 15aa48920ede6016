"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failing assertion marks the corresponding criterion red.
"""

import math
import time

import numpy as np
import pytest

import meanlab as ml
from meanlab.axioms import AXIOM_TOL, recheck
from meanlab.maxent import _log_partition


def _ok(num, text):
    print(f"[ACCEPTANCE] criterion {num:2d} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Five-case taxonomy reproduction
# ---------------------------------------------------------------------------

def test_criterion_01_taxonomy_reproduction():
    started = time.perf_counter()
    cases = {}
    reports = {}
    for name, measure in [
        ("comb_ex1", ml.comb_ex1()),
        ("comb_ex2", ml.comb_ex2()),
        ("cauchy", ml.cauchy(0, 1)),
        ("power_tail", ml.power_tail(1.5, 1.8)),
        ("comb_ex4", ml.comb_ex4()),
        ("negated_comb_ex4", ml.comb_ex4().negate()),
    ]:
        rep = ml.classify_taxonomy(measure)
        cases[name] = rep.case
        reports[name] = rep
    elapsed = time.perf_counter() - started

    assert cases["comb_ex1"] == "I"
    assert cases["comb_ex2"] == "II"
    assert abs(reports["comb_ex2"].c_star - 0.0) <= 1.0
    assert cases["cauchy"] == "III_finite"
    assert abs(reports["cauchy"].common_value) <= 1e-6
    assert cases["power_tail"] == "III_plus_inf"
    assert cases["comb_ex4"] == "IV"
    assert cases["negated_comb_ex4"] == "V"
    assert elapsed < 10.0
    _ok(1, f"six-measure taxonomy in {elapsed:.2f}s: {cases}")


# ---------------------------------------------------------------------------
# 2. Exact oscillation values
# ---------------------------------------------------------------------------

def test_criterion_02_exact_oscillation_values():
    series = ml.limit_scan(ml.comb_ex1(), 0.0)
    distinct = set(series.values.tolist())
    assert distinct <= {0.0, -1.0}
    zeros = int(np.sum(series.values == 0.0))
    ones = int(np.sum(series.values == -1.0))
    assert zeros >= 5 and ones >= 5
    _ok(2, f"comb_ex1 partial means exactly in {{0, -1}} "
           f"({zeros} zeros, {ones} minus-ones)")


# ---------------------------------------------------------------------------
# 3. Cauchy ladder
# ---------------------------------------------------------------------------

def test_criterion_03_cauchy_ladder():
    ladder = ml.mean_ladder(ml.cauchy(0, 1))
    assert ladder.ordinary_kind == "none"
    assert ladder.weak_value is None
    assert ladder.doubly_weak_value == pytest.approx(0.0, abs=1e-6)
    curve = ml.tail_mass_curve(ml.cauchy(0, 1))
    at_1e3 = curve.values[np.where(curve.ns == 1000)[0][0]]
    exact = 1000 * (1 - (2 / math.pi) * math.atan(1000))
    assert at_1e3 == pytest.approx(exact, abs=1e-9)
    assert abs(at_1e3 - 2 / math.pi) <= 0.01
    _ok(3, f"ladder (none, none, {ladder.doubly_weak_value:.2e}); "
           f"n*tail at n=1e3 is {at_1e3:.4f} vs 2/pi = {2 / math.pi:.4f}")


# ---------------------------------------------------------------------------
# 4. Multiplier pathology
# ---------------------------------------------------------------------------

def test_criterion_04_multiplier_pathology():
    measure = ml.cauchy(0, 1)
    limits = {}
    for c in (-2.0, 0.0, 1.0, 3.0):
        ser = ml.multiplier_mean(measure, ml.ExpTiltMultiplier(c))
        assert ser.lambdas[-1] == pytest.approx(1e-4)
        assert ser.verdict.kind == "converged"
        assert abs(ser.values[-1] - c) <= 1e-2
        assert abs(ser.verdict.value - c) <= 1e-2
        limits[c] = ser.verdict.value
        wser = ml.multiplier_mean(measure, ml.WindowMultiplier(c))
        assert wser.verdict.kind == "converged"
        assert abs(wser.verdict.value) <= 1e-6
    _ok(4, "exp-tilt limits track the tilt parameter "
           f"{ {c: round(v, 4) for c, v in limits.items()} }; "
           "window multiplier stays at 0")


# ---------------------------------------------------------------------------
# 5. Asymmetric-window path dependence
# ---------------------------------------------------------------------------

def test_criterion_05_asymmetric_path_dependence():
    cau, gau = ml.cauchy(0, 1), ml.gaussian(0, 1)
    symmetric = ml.asym_partial_mean(cau, 0, 0, 1e5, 1e5)
    assert abs(symmetric) <= 1e-6
    skewed = ml.asym_partial_mean(cau, 0, 0, 1e3, 2e3)
    assert skewed == pytest.approx(math.log(2) / math.pi, abs=1e-3)
    for M in (40.0, 80.0):
        assert abs(ml.asym_partial_mean(gau, 0, 0, M, M)) <= 1e-8
        assert abs(ml.asym_partial_mean(gau, 0, 0, M, 2 * M)) <= 1e-8
    _ok(5, f"cauchy: K=M gives {symmetric:.1e}, K=2M gives {skewed:.4f} "
           f"(ln2/pi = {math.log(2) / math.pi:.4f}); gaussian paths agree")


# ---------------------------------------------------------------------------
# 6. Axiom separation
# ---------------------------------------------------------------------------

def test_criterion_06_axiom_separation():
    trials = 10_000
    for axiom in ml.AxiomId:
        report = ml.check_axiom(ml.mean_statistic, axiom, trials=trials, seed=0)
        assert report.passed, (axiom, report.counterexample)

    median_fails = {}
    for axiom in (ml.AxiomId.COND, ml.AxiomId.ADD):
        report = ml.check_axiom(ml.median_statistic, axiom, trials=trials, seed=0)
        assert not report.passed
        residual = recheck(ml.median_statistic, axiom, report.counterexample)
        assert residual > AXIOM_TOL
        median_fails[axiom.name] = report.counterexample["xs"]
    for axiom in (ml.AxiomId.H, ml.AxiomId.S, ml.AxiomId.T, ml.AxiomId.PH,
                  ml.AxiomId.NN):
        report = ml.check_axiom(ml.median_statistic, axiom, trials=trials, seed=0)
        assert report.passed, (axiom, report.counterexample)
    _ok(6, f"mean passes all nine axioms over {trials} trials; median fails "
           f"condensation/additivity with witnesses {median_fails}")


# ---------------------------------------------------------------------------
# 7. Deviation-probability contrast and stability
# ---------------------------------------------------------------------------

def test_criterion_07_wlln_contrast():
    gauss = ml.build_sampler(ml.gaussian(0, 1), seed=0)
    grep = ml.wlln_experiment(gauss, m=0.0, epsilon=0.1, n_values=[10_000],
                              replications=1000)
    assert grep.fractions[0] <= 0.005

    cau = ml.build_sampler(ml.cauchy(0, 1), seed=0)
    crep = ml.wlln_experiment(cau, m=0.0, epsilon=1.0,
                              n_values=[100, 1000, 10_000], replications=1000)
    for frac in crep.fractions:
        assert frac == pytest.approx(0.5, abs=0.05)

    stab = ml.cauchy_stability_demo(cau, n=100, replications=5000)
    assert stab.distance <= 0.03
    _ok(7, f"gaussian fraction {grep.fractions[0]:.4f} <= 0.005; cauchy "
           f"fractions {crep.fractions} flat at 1/2; stability sup-distance "
           f"{stab.distance:.4f} <= 0.03")


# ---------------------------------------------------------------------------
# 8. Maximum entropy
# ---------------------------------------------------------------------------

def test_criterion_08_maxent():
    flat = ml.maxent_solve(ml.MaxEntProblem(n=6, observables=(), targets=()))
    assert np.allclose(flat.distribution.as_array(), 1 / 6, atol=1e-12)
    assert flat.entropy == pytest.approx(math.log2(6), abs=1e-10)

    die = ml.FiniteObservable((1, 2, 3, 4, 5, 6))
    sol = ml.maxent_solve(ml.MaxEntProblem(n=6, observables=(die,), targets=(4.5,)))

    # independent one-dimensional bisection oracle
    g = np.arange(1.0, 7.0)
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = np.exp(-mid * (g - 3.5))
        if (w @ g) / w.sum() > 4.5:
            lo = mid
        else:
            hi = mid
    w = np.exp(-0.5 * (lo + hi) * (g - 3.5))
    oracle = w / w.sum()
    assert np.allclose(sol.distribution.as_array(), oracle, atol=1e-3)

    rng = np.random.default_rng(11)
    G = die.as_array()[None, :]
    alpha = np.array([4.5])

    def psi(beta):  # log Z + beta . alpha, the dual that maxent_solve minimizes
        return _log_partition(G, beta)[0] + float(beta @ alpha)

    for _ in range(5):
        beta = rng.uniform(-1, 1, size=1)
        grad = alpha - G @ _log_partition(G, beta)[1]
        h = 1e-5
        fd = (psi(beta + h) - psi(beta - h)) / (2 * h)
        assert abs(grad[0] - fd) / max(1.0, abs(grad[0])) <= 1e-6

    with pytest.raises(ml.InfeasibleTargetError):
        ml.MaxEntProblem(n=6, observables=(die,), targets=(7.0,))
    _ok(8, f"uniform entropy log2(6); tilted die matches bisection "
           f"(beta = {sol.betas[0]:.5f}); dual gradient matches differences; "
           "target 7 rejected")


# ---------------------------------------------------------------------------
# 9. Spectral identities
# ---------------------------------------------------------------------------

def test_criterion_09_spectral_identities():
    rng = np.random.default_rng(2024)
    worst_mean, worst_var, worst_dual = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (g + g.conj().T) / 2
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = v / np.linalg.norm(v)
        norm_a = float(np.linalg.norm(A))

        E, F = ml.pos_neg_split(A)
        mean_gap = abs(ml.qm_mean(A, psi)
                       - (np.linalg.norm(E @ psi) ** 2
                          - np.linalg.norm(F @ psi) ** 2))
        assert mean_gap <= 1e-9 * max(1.0, norm_a)
        worst_mean = max(worst_mean, mean_gap / max(1.0, norm_a))

        comb = ml.induced_measure(A, psi)
        mu = ml.qm_mean(A, psi)
        second = sum(a.weight * (a.location - mu) ** 2
                     for a in comb.atoms_within(float("inf")))
        var_gap = abs(ml.qm_variance(A, psi) - second)
        assert var_gap <= 1e-9 * max(1.0, norm_a ** 2)
        worst_var = max(worst_var, var_gap / max(1.0, norm_a ** 2))

        lo = float(rng.uniform(-2, 0))
        hi = lo + float(rng.uniform(0.1, 4))
        dual_gap = abs(comb.window_stats(lo, hi)[0]
                       - ml.window_projection_probability(A, psi, lo, hi))
        assert dual_gap <= 1e-10
        worst_dual = max(worst_dual, dual_gap)
    _ok(9, f"100 random pairs: mean identity gap {worst_mean:.1e}, variance "
           f"gap {worst_var:.1e}, projection duality gap {worst_dual:.1e}")


# ---------------------------------------------------------------------------
# 10. Bridge consistency
# ---------------------------------------------------------------------------

def test_criterion_10_bridge_consistency():
    dyadic = ml.bridge_analyze(ml.build_bridge("dyadic_symmetric"))
    assert dyadic.bridge.in_dom_e is False
    assert dyadic.bridge.in_dom_f is False
    assert dyadic.ladder.ordinary_kind == "none"

    cubic = ml.bridge_analyze(ml.build_bridge("power_law_integer", p=3.0))
    assert cubic.mean_exists is True
    assert cubic.variance_exists is False
    assert cubic.ladder.ordinary_kind == "finite"
    _ok(10, "dyadic bridge: no domain memberships, ladder ordinary none; "
            "cubic power-law bridge: mean exists, variance absent")
