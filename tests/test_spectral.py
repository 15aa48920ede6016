"""Spectral measures, quadratic-form identities, and the diagonal bridge."""

import math

import numpy as np
import pytest
from scipy import special

import meanlab as ml
from meanlab.spectral import EIG_TOL, window_projection_probability


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def test_eigendecompose_diagonal():
    dec = ml.eigendecompose(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(dec.eigenvalues, [1, 2, 3])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(3))


def test_eigendecompose_exchange_matrix():
    dec = ml.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    for col in dec.eigenvectors.T:
        assert np.allclose(np.abs(col), 1 / math.sqrt(2))


def test_eigendecompose_reconstruction_residual():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = _random_hermitian(rng, 5)
        dec = ml.eigendecompose(A)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.linalg.norm(A - rebuilt) <= 10 * EIG_TOL * max(1.0, np.linalg.norm(A)) * 100


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        ml.eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        ml.eigendecompose(np.ones((2, 3)))


def test_state_validation():
    with pytest.raises(ValueError):
        ml.StateVector(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Induced measures
# ---------------------------------------------------------------------------

def test_induced_measure_point_mass():
    comb = ml.induced_measure(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
    atoms = comb.atoms_within(10)
    assert len(atoms) == 1
    assert atoms[0].location == pytest.approx(1.0)
    assert atoms[0].weight == pytest.approx(1.0)


def test_induced_measure_balanced_superposition():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    comb = ml.induced_measure(A, np.array([1.0, 0.0]))
    atoms = sorted(comb.atoms_within(10), key=lambda a: a.location)
    assert [a.location for a in atoms] == pytest.approx([-1.0, 1.0])
    assert [a.weight for a in atoms] == pytest.approx([0.5, 0.5])


def test_induced_measure_total_mass():
    rng = np.random.default_rng(1)
    A = _random_hermitian(rng, 4)
    psi = _random_state(rng, 4)
    comb = ml.induced_measure(A, psi)
    lo = float(np.min(np.linalg.eigvalsh(A))) - 1
    hi = float(np.max(np.linalg.eigvalsh(A))) + 1
    assert comb.window_stats(lo, hi)[0] == pytest.approx(1.0, abs=1e-10)


def test_induced_measure_merges_degenerate_eigenvalues():
    comb = ml.induced_measure(np.eye(3), np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
    atoms = comb.atoms_within(10)
    assert len(atoms) == 1
    assert atoms[0].weight == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ml.induced_measure(np.eye(3), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Mean and variance identities
# ---------------------------------------------------------------------------

def test_qm_mean_and_variance_uniform_diagonal():
    A = np.diag([1.0, 2.0, 3.0])
    psi = np.ones(3) / math.sqrt(3)
    assert ml.qm_mean(A, psi) == pytest.approx(2.0, abs=1e-12)
    assert ml.qm_variance(A, psi) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_variance_vanishes_on_eigenvectors():
    rng = np.random.default_rng(2)
    A = _random_hermitian(rng, 4)
    dec = ml.eigendecompose(A)
    for i in range(4):
        assert ml.qm_variance(A, dec.eigenvectors[:, i]) <= 1e-12 * max(
            1.0, np.linalg.norm(A) ** 2)


def test_mean_equals_induced_first_moment():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = _random_hermitian(rng, 5)
        psi = _random_state(rng, 5)
        comb = ml.induced_measure(A, psi)
        span = float(np.abs(np.linalg.eigvalsh(A)).max()) + 1
        assert ml.qm_mean(A, psi) == pytest.approx(
            comb.window_stats(-span, span)[1], abs=1e-9)


def test_variance_equals_induced_second_central_moment():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = _random_hermitian(rng, 6)
        psi = _random_state(rng, 6)
        comb = ml.induced_measure(A, psi)
        mu = ml.qm_mean(A, psi)
        second = sum(a.weight * (a.location - mu) ** 2
                     for a in comb.atoms_within(float("inf")))
        scale = max(1.0, float(np.linalg.norm(A)) ** 2)
        assert abs(ml.qm_variance(A, psi) - second) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Positive/negative split
# ---------------------------------------------------------------------------

def test_split_diagonal_example():
    E, F = ml.pos_neg_split(np.diag([4.0, -9.0]))
    assert np.allclose(E, np.diag([2.0, 0.0]))
    assert np.allclose(F, np.diag([0.0, 3.0]))


def test_split_of_psd_matrix_has_zero_negative_part():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    A = g @ g.T  # positive semidefinite
    E, F = ml.pos_neg_split(A)
    assert np.linalg.norm(F) <= 1e-8 * max(1.0, np.linalg.norm(A))
    assert np.allclose(E @ E, A, atol=1e-10 * np.linalg.norm(A))


def test_split_identities_and_mean_difference():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = _random_hermitian(rng, n)
        psi = _random_state(rng, n)
        E, F = ml.pos_neg_split(A)
        norm_a = max(1.0, float(np.linalg.norm(A)))
        assert np.linalg.norm(E @ E - F @ F - A) <= 1e-10 * norm_a * n
        assert np.linalg.norm(E @ F) <= 1e-10 * norm_a * n
        lhs = ml.qm_mean(A, psi)
        rhs = np.linalg.norm(E @ psi) ** 2 - np.linalg.norm(F @ psi) ** 2
        assert abs(lhs - rhs) <= 1e-9 * norm_a


def test_zero_eigenvalues_belong_to_neither_factor():
    A = np.diag([2.0, 0.0, -3.0])
    E, F = ml.pos_neg_split(A)
    assert E[1, 1] == 0.0 and F[1, 1] == 0.0
    assert np.allclose(E @ E - F @ F, A)


# ---------------------------------------------------------------------------
# Projection-mean duality and unitary invariance
# ---------------------------------------------------------------------------

def test_window_probability_duality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = _random_hermitian(rng, 6)
        psi = _random_state(rng, 6)
        comb = ml.induced_measure(A, psi)
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(0.1, 4))
        via_measure = comb.window_stats(lo, hi)[0]
        via_projection = window_projection_probability(A, psi, lo, hi)
        assert abs(via_measure - via_projection) <= 1e-10


def test_unitary_invariance():
    rng = np.random.default_rng(8)
    A = _random_hermitian(rng, 5)
    psi = _random_state(rng, 5)
    U = _random_unitary(rng, 5)
    A2, psi2 = U @ A @ U.conj().T, U @ psi
    assert ml.qm_mean(A2, psi2) == pytest.approx(ml.qm_mean(A, psi), abs=1e-9)
    assert ml.qm_variance(A2, psi2) == pytest.approx(ml.qm_variance(A, psi),
                                                     abs=1e-9)
    w1 = sorted((a.location, a.weight) for a in
                ml.induced_measure(A, psi).atoms_within(float("inf")))
    w2 = sorted((a.location, a.weight) for a in
                ml.induced_measure(A2, psi2).atoms_within(float("inf")))
    for (l1, m1), (l2, m2) in zip(w1, w2):
        assert l1 == pytest.approx(l2, abs=1e-9)
        assert m1 == pytest.approx(m2, abs=1e-9)


# ---------------------------------------------------------------------------
# Diagonal bridge
# ---------------------------------------------------------------------------

def test_dyadic_bridge_all_domains_fail():
    report = ml.bridge_analyze(ml.build_bridge("dyadic_symmetric"))
    b = report.bridge
    assert (b.in_dom_e, b.in_dom_f, b.in_dom_a) == (False, False, False)
    assert not report.mean_exists
    assert report.ladder.ordinary_kind == "none"
    assert report.ladder.taxonomy_case == "II"
    # partial sums grow with the horizon: corroborating divergence evidence
    assert report.partial_sums["pos_abs_moment"] > 5.0


def test_power_law_p4_bridge_everything_exists():
    report = ml.bridge_analyze(ml.build_bridge("power_law_integer", p=4.0))
    b = report.bridge
    assert (b.in_dom_e, b.in_dom_f, b.in_dom_a) == (True, True, True)
    expected = float(special.zeta(3) / special.zeta(4))
    assert b.analytic_mean == pytest.approx(expected, rel=1e-12)
    assert report.ladder.ordinary_kind == "finite"
    assert report.ladder.ordinary_value == pytest.approx(expected, abs=1e-6)
    # oracle: explicit partial sums with an integral tail bound
    z4 = sum(n ** -4.0 for n in range(1, 100000))
    partial = sum(n ** -3.0 for n in range(1, 100000)) / z4
    assert report.ladder.ordinary_value == pytest.approx(partial, abs=1e-6)


def test_power_law_p3_bridge_mean_without_variance():
    report = ml.bridge_analyze(ml.build_bridge("power_law_integer", p=3.0))
    assert report.mean_exists
    assert not report.variance_exists
    assert report.ladder.ordinary_kind == "finite"
    assert report.ladder.ordinary_value == pytest.approx(
        float(special.zeta(2) / special.zeta(3)), abs=1e-6)


def test_bridge_partial_sums_are_one_window_call(scan_counts):
    report = ml.bridge_analyze(ml.build_bridge("power_law_integer", p=3.0))
    # the ladder's grid and one-sided scans, plus one call for both sums
    assert scan_counts["window_stats"] == len(ml.DEFAULT_C_GRID) + 2 + 1
    comb = report.bridge.comb
    assert report.partial_sums["pos_abs_moment"] == float(comb.window_stats(0.0, 1e6)[1])
    assert report.partial_sums["neg_abs_moment"] == -float(comb.window_stats(-1e6, 0.0)[1])


def test_bridge_consistency_violation_raises():
    fake = ml.DiagonalBridge(family="broken", params={}, comb=ml.comb_ex2(),
                             in_dom_a=False, in_dom_e=True, in_dom_f=True)
    with pytest.raises(ArithmeticError, match="inconsistency"):
        ml.bridge_analyze(fake)


def test_unknown_bridge_family():
    with pytest.raises(ValueError):
        ml.build_bridge("unknown_family")
