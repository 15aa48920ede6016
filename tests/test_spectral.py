"""Spectral measures, quadratic-form identities, and the diagonal bridge."""

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

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
        ml.qm_mean(np.eye(2), [1.0, 1.0])


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


@pytest.mark.parametrize("call", [
    ml.induced_measure, ml.qm_mean, ml.qm_variance,
    lambda A, psi: ml.window_projection_probability(A, psi, 0.0, 1.0)],
    ids=["induced_measure", "qm_mean", "qm_variance", "window_projection_probability"])
def test_every_matrix_and_state_function_names_a_dimension_mismatch(call):
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        call(np.eye(2), np.ones(3) / math.sqrt(3.0))


def test_merge_groups_are_anchored_at_their_first_eigenvalue():
    # merge_tol is 1e-8 here: 0.6e-8 joins 0, and 1.2e-8, beyond 0 + 1e-8,
    # starts the next group, which 1.8e-8 joins
    comb = ml.induced_measure(np.diag([0.0, 0.6e-8, 1.2e-8, 1.8e-8]), np.full(4, 0.5))
    atoms = comb.atoms_within(math.inf)
    assert [a.weight for a in atoms] == [0.5, 0.5]
    assert [a.location for a in atoms] == pytest.approx([0.3e-8, 1.5e-8], rel=1e-12)


_CALLS = {
    "eigendecompose": (lambda a, psi: ml.eigendecompose(a), 1),
    "induced_measure": (ml.induced_measure, 1),
    "qm_mean": (ml.qm_mean, 0),
    "qm_variance": (ml.qm_variance, 0),
    "pos_neg_split": (lambda a, psi: ml.pos_neg_split(a), 1),
    "window_projection_probability":
        (lambda a, psi: window_projection_probability(a, psi, -1.0, 1.0), 1),
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_each_call_validates_once_and_decomposes_at_most_once(monkeypatch, name):
    call, eighs = _CALLS[name]
    counts = {"_as_matrix": 0, "eigh": 0}

    def counted(key, original):
        def wrapper(*args):
            counts[key] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(ml.spectral, "_as_matrix", counted("_as_matrix", ml.spectral._as_matrix))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    # a matrix of its own per parameter, so no earlier call has decomposed it
    rng = np.random.default_rng([3, sorted(_CALLS).index(name)])
    call(_random_hermitian(rng, 6), _random_state(rng, 6))
    assert counts == {"_as_matrix": 1, "eigh": eighs}


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts np.linalg.eigh calls (``eigh_calls[0]``)."""
    calls, original = [0], np.linalg.eigh

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _spectral_outputs(a, psi):
    """The induced measure's atoms, E and F, and one window probability, in
    the order a benchmark spectral operation asks for them."""
    atoms = ml.induced_measure(a, psi).atoms_within(math.inf)
    e, f = ml.pos_neg_split(a)
    return atoms, e, f, window_projection_probability(a, psi, -0.5, 1.5)


def test_calls_on_one_matrix_share_one_eigh(eigh_calls):
    rng = np.random.default_rng(30)
    a, psi = _random_hermitian(rng, 7), _random_state(rng, 7)
    _spectral_outputs(a, psi)
    assert eigh_calls[0] == 1
    # the same values in another layout or as nested lists still hit
    _spectral_outputs(np.asfortranarray(a), psi)
    _spectral_outputs(a.tolist(), psi)
    assert eigh_calls[0] == 1


def test_a_changed_entry_or_zero_sign_decomposes_again(eigh_calls):
    rng = np.random.default_rng(31)
    a, psi = _random_hermitian(rng, 5), _random_state(rng, 5)
    ml.induced_measure(a, psi)
    b = a.copy()
    b[1, 2] += 1e-15
    b[2, 1] = b[1, 2].conjugate()
    ml.pos_neg_split(b)
    assert eigh_calls[0] == 2
    ml.pos_neg_split(np.zeros((3, 3)))
    ml.pos_neg_split(np.diag([-0.0, 0.0, 0.0]))
    ml.pos_neg_split(-np.zeros((3, 3)))
    assert eigh_calls[0] == 5
    # the zero matrix of another size is another matrix, decomposed once
    ml.pos_neg_split(np.zeros((1, 1)))
    ml.pos_neg_split(np.zeros((1, 1)))
    assert eigh_calls[0] == 6


def test_eigendecompose_always_decomposes_afresh(eigh_calls):
    rng = np.random.default_rng(32)
    a, psi = _random_hermitian(rng, 6), _random_state(rng, 6)
    first, second = ml.eigendecompose(a), ml.eigendecompose(a)
    assert eigh_calls[0] == 2
    assert not np.shares_memory(first.eigenvectors, second.eigenvectors)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_mutating_returned_arrays_changes_no_later_result(warm):
    rng = np.random.default_rng(33)
    a, psi = _random_hermitian(rng, 6), _random_state(rng, 6)
    want = _spectral_outputs(a, psi)
    if not warm:
        ml.pos_neg_split(np.eye(2))  # the last decomposed matrix is another one
    dec = ml.eigendecompose(a)
    dec.eigenvalues[:] = 0.0
    dec.eigenvectors[:] = 0.0
    e, f = ml.pos_neg_split(a)
    e[:] = f[:] = np.nan
    got = _spectral_outputs(a, psi)
    assert repr(got[0]) == repr(want[0]) and repr(got[3]) == repr(want[3])
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


def test_threads_alternating_matrices_each_get_their_own_decomposition():
    # more threads than cores, switching often, each alternating between two
    # matrices: a torn or lost update of the remembered decomposition would
    # hand one matrix the other's eigenvalues
    rng = np.random.default_rng(34)
    cases = [(_random_hermitian(rng, 4), _random_state(rng, 4)) for _ in range(4)]
    want = [repr(ml.induced_measure(a, psi).atoms_within(math.inf)) for a, psi in cases]
    bad, interval = [], sys.getswitchinterval()

    def work(k):
        for j in range(200):
            i = (k + j) % 2 + 2 * (k % 2)
            if repr(ml.induced_measure(*cases[i]).atoms_within(math.inf)) != want[i]:
                bad.append((k, j))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


# The cases of the bitwise gate below, each output computed by a fresh
# interpreter either as usual, sharing decompositions between calls, or with
# the remembered decomposition dropped before every call.
_FRESH_CHILD = """
import hashlib, math, sys
sys.path[:0] = [{src!r}, {here!r}]
import test_spectral as t
from meanlab import spectral
h = hashlib.sha256()
for a, psi, lo, hi in t._gate_cases():
    for call in (lambda: spectral.induced_measure(a, psi).atoms_within(math.inf),
                 lambda: spectral.pos_neg_split(a),
                 lambda: spectral.window_projection_probability(a, psi, lo, hi)):
        if {fresh}:
            spectral._LAST = (None, None)
        out = call()
        h.update(b"".join(x.tobytes() for x in out) if isinstance(out, tuple)
                 else repr(out).encode())
print(h.hexdigest())
"""


def test_shared_decompositions_give_the_outputs_of_fresh_ones():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    digests = []
    for fresh in (False, True):
        code = _FRESH_CHILD.format(src=str(here.parent / "src"), here=str(here), fresh=fresh)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1] and len(digests[0]) == 1


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


_DIAG_STATE = (np.diag([1.0, 2.0]), [0.6, 0.8])


@pytest.mark.parametrize("lo, hi", [(math.nan, 5.0), (0.0, math.nan), (math.nan, math.nan),
                                    (3.0, 0.0), (math.inf, -math.inf)])
def test_window_probability_refuses_what_window_stats_refuses(lo, hi):
    comb = ml.induced_measure(*_DIAG_STATE)
    with pytest.raises(ValueError, match=r"^window requires lo <= hi, got \["):
        comb.window_stats(lo, hi)
    with pytest.raises(ValueError, match=rf"^window requires lo <= hi, got \[{lo}, {hi}\]$"):
        window_projection_probability(*_DIAG_STATE, lo, hi)


@pytest.mark.parametrize("lo, hi, want", [(-math.inf, math.inf, 1.0), (-math.inf, 1.5, 0.36),
                                          (1.5, math.inf, 0.64), (math.inf, math.inf, 0.0),
                                          (1.0, 1.0, 0.36), (2.0, 2.0, 0.64)])
def test_window_probability_takes_infinite_and_closed_windows(lo, hi, want):
    got = window_projection_probability(*_DIAG_STATE, lo, hi)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(float(ml.induced_measure(*_DIAG_STATE).window_stats(lo, hi)[0]),
                                abs=1e-15)


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
# Bitwise gate
# ---------------------------------------------------------------------------

def _gate_cases():
    """About 200 seeded Hermitian matrices of dimension 1 to 128 with states
    and windows, then the degenerate cases: identities (one merged group of
    every eigenvalue), clusters closer than the merge tolerance (groups of 3,
    5 and 12 with unequal members, and a chain the greedy rule splits at its
    anchor) and zero matrices (signed-zero eigenvalues)."""
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = int(rng.integers(1, 129))
        lo = float(rng.normal(0.0, 2.0))
        a, psi = _random_hermitian(rng, n), _random_state(rng, n)
        yield a, psi, lo, lo + float(rng.exponential(3.0))
    for n in (1, 3, 8, 20):
        yield np.eye(n), _random_state(rng, n), 0.5, 1.0
    m = 1e-8  # the merge tolerance is m * max(1, ||A||), here about 10 m
    lams = np.concatenate([0.5 + m * np.arange(12) / 12, -1.0 + m * np.arange(5) / 5,
                           2.0 + m * np.arange(3) / 3, [-3.0, 3.0, 8.0]])
    chain = 8.0 + 0.6 * m * np.linalg.norm(lams) * np.arange(1, 4)
    lams = np.concatenate([lams, chain])
    u = _random_unitary(rng, lams.size)
    yield (u * lams) @ u.conj().T, _random_state(rng, lams.size), 0.0, 2.5
    for n in (1, 4, 9):
        yield np.zeros((n, n)), _random_state(rng, n), -1.0, 0.0
    yield -np.zeros((4, 4)), _random_state(rng, 4), -1.0, 0.0
    yield np.diag([-0.0, -0.0, 1.0]), _random_state(rng, 3), -0.0, 0.0


def _loop_atoms(a, psi):
    """The induced measure's atoms by the per-group loop that the vectorised
    merge replaced: greedy groups anchored at their first eigenvalue, each
    weight a slice sum and each location an ``np.average``."""
    dec = ml.eigendecompose(a)
    v = np.asarray(psi, dtype=complex)
    weights = np.abs(dec.eigenvectors.conj().T @ v) ** 2
    merge_tol = 1e-8 * max(1.0, float(np.linalg.norm(np.asarray(a, dtype=complex))))
    lams, atoms, i = dec.eigenvalues, [], 0
    while i < len(lams):
        j = i
        while j + 1 < len(lams) and lams[j + 1] - lams[i] <= merge_tol:
            j += 1
        w = float(weights[i:j + 1].sum())
        if w > 0.0:
            atoms.append(ml.Atom(float(np.average(
                lams[i:j + 1], weights=np.maximum(weights[i:j + 1], 1e-300))), w))
        i = j + 1
    return atoms


def test_vectorised_merge_matches_the_per_group_loop():
    # sums of 8 or more terms are pairwise and of more than 128 recursive:
    # the 200-eigenvalue cluster is one group of each kind
    rng = np.random.default_rng(21)
    cluster = np.diag(np.sort(1.0 + 1e-10 * rng.random(200)))
    cases = [(a, psi) for a, psi, _, _ in _gate_cases()]
    cases.append((cluster, _random_state(rng, 200)))
    for a, psi in cases:
        atoms = ml.induced_measure(a, psi).atoms_within(math.inf)
        assert repr(atoms) == repr(_loop_atoms(a, psi))


def _gate_digest() -> str:
    """sha256 over the reprs of every output below and the bytes of E and F."""
    h = hashlib.sha256()
    for a, psi, lo, hi in _gate_cases():
        atoms = ml.induced_measure(a, psi).atoms_within(math.inf)
        e, f = ml.pos_neg_split(a)
        h.update(repr((atoms, ml.qm_mean(a, psi), ml.qm_variance(a, psi),
                       window_projection_probability(a, psi, lo, hi))).encode())
        h.update(e.tobytes())
        h.update(f.tobytes())
    return h.hexdigest()


# Recorded from the per-eigenvalue merge loop with its repeated validation,
# on OpenBLAS 0.3.31 (Haswell kernels) with one thread: the blocked
# eigensolver's last bits depend on the BLAS kernels and thread count, so the
# digest is computed in a child process pinned to one thread.
SPECTRAL_SHA256 = "a8f352eab55cdc21071709804d0024f7ae1aae109f2fdcb140ff9dc45532acb3"


def test_spectral_outputs_are_bitwise_unchanged():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]\n"
            "import test_spectral; print(test_spectral._gate_digest())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [SPECTRAL_SHA256]


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
    # one call for the ladder's grid and one-sided scans, one for both sums
    assert scan_counts["window_stats"] == 2
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
