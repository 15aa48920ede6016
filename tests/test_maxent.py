"""Entropy and the dual Newton maximum-entropy solver."""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

import meanlab as ml
from meanlab.maxent import FEAS_TOL, _log_partition


def _uniform(n):
    return ml.FiniteDistribution(tuple(1.0 / n for _ in range(n)))


# ---------------------------------------------------------------------------
# Entropy and expectation
# ---------------------------------------------------------------------------

def test_entropy_uniform_six_states():
    assert ml.entropy(_uniform(6), "bits") == pytest.approx(math.log2(6), abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert ml.entropy(ml.FiniteDistribution((0.0, 1.0, 0.0))) == 0.0


def test_entropy_dyadic():
    assert ml.entropy(ml.FiniteDistribution((0.5, 0.25, 0.25)), "bits") == \
        pytest.approx(1.5, abs=1e-12)


def test_entropy_base_coherence():
    p = ml.FiniteDistribution((0.2, 0.3, 0.5))
    assert ml.entropy(p, "nats") == pytest.approx(
        ml.entropy(p, "bits") * math.log(2), abs=1e-12)


def test_entropy_maximal_iff_uniform():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.random(6) + 1e-3
        p = ml.FiniteDistribution(tuple(w / w.sum()))
        assert ml.entropy(p) <= ml.entropy(_uniform(6)) + 1e-12


def test_expected_value():
    die = _uniform(6)
    faces = ml.FiniteObservable((1, 2, 3, 4, 5, 6))
    assert ml.expected_value(die, faces) == pytest.approx(3.5)
    point = ml.FiniteDistribution((0, 0, 1.0, 0, 0, 0))
    squares = ml.FiniteObservable(tuple((i + 1) ** 2 for i in range(6)))
    assert ml.expected_value(point, squares) == 9
    assert ml.expected_value(ml.FiniteDistribution((0.2, 0.8)),
                             ml.FiniteObservable((0, 1))) == pytest.approx(0.8)


def test_expected_value_dimension_mismatch():
    with pytest.raises(ValueError):
        ml.expected_value(_uniform(3), ml.FiniteObservable((1, 2)))


def test_distribution_validation():
    with pytest.raises(ValueError):
        ml.FiniteDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        ml.FiniteDistribution((1.2, -0.2))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _die_problem(target):
    return ml.MaxEntProblem(n=6,
                            observables=(ml.FiniteObservable((1, 2, 3, 4, 5, 6)),),
                            targets=(target,))


def test_unconstrained_solution_is_uniform():
    sol = ml.maxent_solve(ml.MaxEntProblem(n=6, observables=(), targets=()))
    assert np.allclose(sol.distribution.as_array(), 1 / 6, atol=1e-12)
    assert sol.entropy == pytest.approx(math.log2(6), abs=1e-10)


def test_symmetric_target_recovers_uniform():
    sol = ml.maxent_solve(_die_problem(3.5))
    assert np.allclose(sol.distribution.as_array(), 1 / 6, atol=1e-9)
    assert abs(sol.betas[0]) <= 1e-9


def _bisection_die_distribution(target, lo=-30.0, hi=30.0):
    # independent oracle: one-dimensional bisection on the tilt of a die
    g = np.arange(1.0, 7.0)

    def mean_at(beta):
        w = np.exp(-beta * (g - 3.5))  # centered for conditioning
        return float((w @ g) / w.sum())

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    w = np.exp(-beta * (g - 3.5))
    return w / w.sum()


def test_tilted_die_matches_bisection_oracle():
    sol = ml.maxent_solve(_die_problem(4.5))
    oracle = _bisection_die_distribution(4.5)
    assert np.allclose(sol.distribution.as_array(), oracle, atol=1e-9)
    frozen = (0.0544, 0.0788, 0.1142, 0.1654, 0.2398, 0.3475)
    assert np.allclose(sol.distribution.as_array(), frozen, atol=1e-3)
    assert ml.expected_value(sol.distribution,
                             ml.FiniteObservable((1, 2, 3, 4, 5, 6))) == \
        pytest.approx(4.5, abs=1e-9)


def test_moment_residuals_meet_feasibility_tolerance():
    sol = ml.maxent_solve(_die_problem(2.2))
    assert all(abs(r) <= 1e-9 for r in sol.residuals)


def test_infeasible_target_raises():
    with pytest.raises(ml.InfeasibleTargetError, match="attainable"):
        _die_problem(7.0)


def test_boundary_target_rejected():
    # exactly attainable only by a point mass: the dual diverges
    with pytest.raises(ml.InfeasibleTargetError):
        ml.maxent_solve(_die_problem(6.0))


def test_redundant_observable_detected_and_named():
    g1 = ml.FiniteObservable((1, 2, 3, 4, 5, 6))
    g2 = ml.FiniteObservable(tuple(2 * v + 3 for v in (1, 2, 3, 4, 5, 6)))
    prob = ml.MaxEntProblem(n=6, observables=(g1, g2), targets=(3.5, 10.0))
    with pytest.raises(ml.RedundantObservableError) as err:
        ml.maxent_solve(prob)
    assert err.value.index in (0, 1)


def test_two_constraints_lower_entropy():
    g1 = ml.FiniteObservable((1, 2, 3, 4, 5, 6))
    g2 = ml.FiniteObservable((1, 4, 9, 16, 25, 36))
    single = ml.maxent_solve(_die_problem(4.5))
    double = ml.maxent_solve(ml.MaxEntProblem(
        n=6, observables=(g1, g2), targets=(4.5, 22.0)))
    assert ml.expected_value(double.distribution, g2) == pytest.approx(22.0, abs=1e-8)
    assert double.entropy <= single.entropy + 1e-12


# ---------------------------------------------------------------------------
# Dual calculus and optimality
# ---------------------------------------------------------------------------

def test_dual_gradient_matches_central_differences():
    # psi = log Z + beta . alpha and its gradient alpha - G p, as maxent_solve forms them
    rng = np.random.default_rng(123)
    G = rng.uniform(-2, 2, size=(3, 8))
    p0 = np.full(8, 1 / 8)
    alpha = G @ p0  # feasible by construction

    def psi(beta):
        return _log_partition(G, beta)[0] + float(beta @ alpha)

    for _ in range(5):
        beta = rng.uniform(-1, 1, size=3)
        grad = alpha - G @ _log_partition(G, beta)[1]
        h = 1e-5
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = (psi(beta + e) - psi(beta - e)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - fd) / denom <= 1e-6


def test_solution_is_a_constrained_entropy_maximum():
    g = np.arange(1.0, 7.0)
    sol = ml.maxent_solve(_die_problem(4.5))
    p_star = sol.distribution.as_array()
    h_star = ml.entropy(sol.distribution)
    # feasible directions are orthogonal to the observable and to the
    # all-ones row, so constraints survive the perturbation exactly
    A = np.vstack([g, np.ones(6)])
    _, _, vt = np.linalg.svd(A)
    null_basis = vt[2:]
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = null_basis.T @ rng.uniform(-1, 1, size=null_basis.shape[0])
        scale = 0.2 * p_star.min() / max(np.abs(z).max(), 1e-12)
        p = p_star + scale * z
        assert np.all(p > 0)
        assert float(p @ g) == pytest.approx(4.5, abs=1e-9)
        assert ml.entropy(ml.FiniteDistribution(tuple(p / p.sum()))) <= h_star + 1e-9


def test_affine_rescaling_leaves_the_distribution_fixed():
    a, b = 2.5, -4.0
    base = ml.maxent_solve(_die_problem(4.5))
    scaled = ml.maxent_solve(ml.MaxEntProblem(
        n=6,
        observables=(ml.FiniteObservable(tuple(a * v + b for v in (1, 2, 3, 4, 5, 6))),),
        targets=(a * 4.5 + b,)))
    assert np.allclose(base.distribution.as_array(),
                       scaled.distribution.as_array(), atol=1e-9)
    assert scaled.betas[0] == pytest.approx(base.betas[0] / a, abs=1e-8)


# ---------------------------------------------------------------------------
# Line search at roundoff, and the solver's parameters
# ---------------------------------------------------------------------------

def _problem(observables, targets):
    return ml.MaxEntProblem(
        n=len(observables[0]),
        observables=tuple(ml.FiniteObservable(tuple(g)) for g in observables),
        targets=tuple(targets))


# Armijo backtracking alone stalls on this problem at a moment gap of 1.5e-10:
# from step 3 on, the predicted decrease is below one ulp of psi.
PINNED = _problem([(0.409, -0.428, -1.078, -1.054, 2.103)], [0.1900779329783188])


def _drawn_problem(i):
    # n in [3, 40), k < min(4, n), observables rounded to 3 digits and
    # targets the moments of a Dirichlet draw: feasible and well posed
    rng = np.random.default_rng([99, i])
    n = int(rng.integers(3, 40))
    k = int(rng.integers(0, min(4, n)))
    obs = np.round(rng.standard_normal((k, n)), 3)
    q = rng.dirichlet(np.ones(n))
    return ml.MaxEntProblem(
        n=n, observables=tuple(ml.FiniteObservable(tuple(g)) for g in obs.tolist()),
        targets=tuple((obs @ q).tolist()))


def test_solve_evaluates_the_log_partition_once_per_point(monkeypatch):
    # The tilted die takes 5 Newton steps, each of whose first 4 accepts its
    # first line-search candidate: 1 evaluation at beta = 0 plus 4, and the
    # accepted candidate's serves the next step and the solution.
    calls = []
    original = ml.maxent._log_partition

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ml.maxent, "_log_partition", counted)
    assert ml.maxent_solve(_die_problem(4.5)).newton_steps == 5
    assert len(calls) == 5


def test_pinned_problem_solves_past_the_armijo_roundoff():
    sol = ml.maxent_solve(PINNED)
    assert max(abs(r) for r in sol.residuals) <= FEAS_TOL
    assert sol.newton_steps <= 10


def test_drawn_problems_all_solve_in_few_steps():
    # Armijo backtracking alone stalls on 5 of these 500
    for i in range(500):
        sol = ml.maxent_solve(_drawn_problem(i))
        assert sol.newton_steps <= 10, i
        assert max(map(abs, sol.residuals), default=0.0) <= FEAS_TOL, i


_DIE = (1, 2, 3, 4, 5, 6)
_SQUARES = (1, 4, 9, 16, 25, 36)


@pytest.mark.parametrize("observables, targets", [
    ([_DIE], [1.0]),                    # the lower boundary: a point mass
    ([_DIE, _SQUARES], [3.5, 12.25]),   # E g^2 = (E g)^2: a point mass
    ([_DIE, _SQUARES], [3.5, 12.0]),    # E g^2 < (E g)^2
])
def test_more_infeasible_and_boundary_targets_raise(observables, targets):
    # the last two pass the per-observable range check and diverge in Newton
    with pytest.raises(ml.InfeasibleTargetError):
        ml.maxent_solve(_problem(observables, targets))


# Targets 4 - 10^-e on [1, 2, 3, 4] never reach the roundoff regime, so they
# keep the Newton steps and beta of the Armijo path bit for bit.
_NEAR_BOUNDARY = [
    (3, 12, -6.9087547748652725), (4, 14, -9.21044033586701),
    (5, 16, -11.512934531848831), (6, 18, -13.81549684386179),
    (7, 20, -16.11795804720779), (8, 22, -18.41983648497466),
    (9, 23, -20.63629950661438), (10, 24, -22.401776251832803),
    (11, 25, -23.698001428319603), (12, 25, -23.80991613487137),
    (13, 25, -23.821505925163702), (14, 25, -23.822633360449252),
]


@pytest.mark.parametrize("e, steps, beta", _NEAR_BOUNDARY)
def test_near_boundary_targets_keep_their_newton_path(e, steps, beta):
    sol = ml.maxent_solve(_problem([(1, 2, 3, 4)], [4 - 10.0 ** -e]))
    assert (sol.newton_steps, sol.betas) == (steps, (beta,))


def _scaled_problem(i):
    # observables scaled by 10^e, e in [-6, 6), and targets near a face of the
    # moment set (a sparse Dirichlet draw): problems 6, 2858 and 3086 solve
    # after backtracking, 3086 and 3550 run out of halvings, 3550 is refused
    rng = np.random.default_rng([5, i])
    n = int(rng.integers(2, 30))
    k = int(rng.integers(1, min(4, n)))
    obs = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-6, 6)
    q = rng.dirichlet(np.full(n, 10.0 ** rng.uniform(-3, 0)))
    return _problem(obs.tolist(), (obs @ q).tolist())


def _solution_repr(problem):
    try:
        return repr(ml.maxent_solve(problem))
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


# sha256 over the newline-joined reprs below, recorded from the solver that
# evaluated every accepted point twice: reusing each evaluation changes no bit.
SOLUTIONS_SHA256 = "58fd63384439ca6f2ce88222c6b78c027a0546ce7d35e1af3a7e42936e3c15bd"


def test_solutions_are_bitwise_unchanged():
    problems = [*map(_drawn_problem, range(500)), PINNED, _die_problem(4.5),
                ml.MaxEntProblem(n=1, observables=(), targets=()),
                ml.MaxEntProblem(n=6, observables=(), targets=()),
                *(_problem([(1, 2, 3, 4)], [4 - 10.0 ** -e]) for e, _, _ in _NEAR_BOUNDARY),
                *map(_scaled_problem, (6, 2858, 3086, 3550))]
    text = "\n".join(map(_solution_repr, problems))
    assert hashlib.sha256(text.encode()).hexdigest() == SOLUTIONS_SHA256


def _mpmath_distribution(problem, betas):
    """p* from Newton on the same dual at 40 digits, started at ``betas``.

    The dual is strictly convex, so a moment gap below 1e-30 pins p* whatever
    the start; the start only saves iterations."""
    with mp.workdps(40):
        G = [[mp.mpf(v) for v in g.values] for g in problem.observables]
        alpha = [mp.mpf(a) for a in problem.targets]
        k, n = len(G), problem.n
        beta = [mp.mpf(b) for b in betas]
        for _ in range(20):
            w = [-mp.fsum(beta[j] * G[j][i] for j in range(k)) for i in range(n)]
            top = max(w)
            e = [mp.exp(x - top) for x in w]
            p = [x / mp.fsum(e) for x in e]
            m = [mp.fsum(G[j][i] * p[i] for i in range(n)) for j in range(k)]
            grad = [alpha[j] - m[j] for j in range(k)]
            if max(abs(g) for g in grad) < mp.mpf(10) ** -30:
                return [float(x) for x in p]
            cov = mp.matrix(k, k)
            for a in range(k):
                for b in range(k):
                    cov[a, b] = mp.fsum(G[a][i] * G[b][i] * p[i]
                                        for i in range(n)) - m[a] * m[b]
            step = mp.lu_solve(cov, mp.matrix(grad))
            beta = [beta[j] - step[j] for j in range(k)]
    raise AssertionError("the mpmath Newton did not converge")


def _oracle_error(problem):
    sol = ml.maxent_solve(problem)
    exact = _mpmath_distribution(problem, sol.betas)
    return max(abs(a - b) for a, b in zip(sol.distribution.probabilities, exact))


# Problems whose last step is a full Newton step taken in the roundoff regime
# (22 and 47 have k = 3; Armijo alone stalls on PINNED and 22, and stops 9.8e-12
# away on 13 and 8.3e-12 on 47): they land at p* to about 1e-17.
@pytest.mark.parametrize("problem", [PINNED, _drawn_problem(13), _drawn_problem(22),
                                     _drawn_problem(47)],
                         ids=["pinned", "drawn13", "drawn22", "drawn47"])
def test_solution_matches_a_40_digit_newton(problem):
    assert _oracle_error(problem) <= 1e-14


# A solve that stops at a gap just under FEAS_TOL is only that close to p*:
# 4.4e-12 on problem 1 and 1.4e-11 on problem 106, both k = 3.
@pytest.mark.parametrize("i", [1, 106])
def test_solution_stopping_at_feas_tol_is_that_close(i):
    assert _oracle_error(_drawn_problem(i)) <= 1e-10


