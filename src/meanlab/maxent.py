"""Entropy and the maximum-entropy solver on a finite state space.

Given observables g_1..g_k on n states and target means alpha_1..alpha_k,
the entropy-maximizing distribution subject to E[g_j] = alpha_j is an
exponential family p_i proportional to exp(-sum_j beta_j g_j(i)).  The dual
variables solve an unconstrained smooth convex problem

    minimize  psi(beta) = log Z(beta) + beta . alpha,

whose gradient is alpha - E_p[g] and whose Hessian is the covariance of g
under p, so damped Newton from beta = 0 converges fast, to a moment gap of FEAS_TOL.
Steps are damped by Armijo backtracking on psi until the predicted decrease
is within 16 ulps of psi; there no step can pass the Armijo test in double
precision, so the moment gap ||alpha - E_p[g]||_inf judges the steps instead.
Targets on or outside the attainable moment range push ||beta|| to infinity
and are rejected; linearly dependent observables make the covariance
singular and are rejected with the offending index named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import _number

__all__ = [
    "FiniteDistribution",
    "FiniteObservable",
    "MaxEntProblem",
    "MaxEntSolution",
    "InfeasibleTargetError",
    "RedundantObservableError",
    "entropy",
    "expected_value",
    "maxent_solve",
    "FEAS_TOL",
]

FEAS_TOL = 1e-10
_MAX_NEWTON_STEPS = 200
_BETA_GUARD = 1e3
_ROUNDOFF_ULPS = 16  # a predicted decrease this many ulps of psi is roundoff


class InfeasibleTargetError(ValueError):
    """Target moments outside (or on the boundary of) the attainable set."""


class RedundantObservableError(ValueError):
    """Observables are affinely dependent; names the dependent index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector on n states."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("distribution needs a nonempty 1-d vector")
        if np.any(p < 0):
            raise ValueError(f"negative probability: min {p.min()}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probabilities, dtype=float)


@dataclass(frozen=True)
class FiniteObservable:
    """A real value per state."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("observable needs a nonempty finite 1-d vector")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class MaxEntProblem:
    """State count, observables, target means, and the entropy log base."""

    n: int
    observables: tuple[FiniteObservable, ...]
    targets: tuple[float, ...]
    base: str = "bits"  # "bits" or "nats"

    def __post_init__(self):
        _number("n", self.n, integer=True, ge=1)
        for j, a in enumerate(self.targets):
            _number(f"targets[{j}]", a)
        if len(self.observables) != len(self.targets):
            raise ValueError("one target per observable required")
        for j, g in enumerate(self.observables):
            if len(g.values) != self.n:
                raise ValueError(f"observable {j} has {len(g.values)} values "
                                 f"for {self.n} states")
        if self.base not in ("bits", "nats"):
            raise ValueError(f"base must be 'bits' or 'nats', got {self.base!r}")
        for j, (g, a) in enumerate(zip(self.observables, self.targets)):
            v = g.as_array()
            if v.min() == v.max():
                continue  # constant observable: handled by the redundancy check
            if not (v.min() < a < v.max()):
                # boundary targets are rejected, not approximated: they are
                # attainable only by degenerate distributions and push the
                # dual variables to infinity
                raise InfeasibleTargetError(
                    f"target {a} for observable {j} is not strictly inside its "
                    f"attainable range [{v.min():g}, {v.max():g}]")

    def matrix(self) -> np.ndarray:
        return np.array([g.values for g in self.observables], dtype=float).reshape(-1, self.n)


def entropy(p: FiniteDistribution | Sequence[float], base: str = "bits") -> float:
    """H(p) = sum p_i log(1 / p_i), with 0 log(1/0) = 0."""
    arr = p.as_array() if isinstance(p, FiniteDistribution) else np.asarray(p, float)
    pos = arr[arr > 0]
    h_nats = float(-np.sum(pos * np.log(pos)))
    return h_nats / math.log(2) if base == "bits" else h_nats


def expected_value(p: FiniteDistribution | Sequence[float],
                   g: FiniteObservable | Sequence[float]) -> float:
    """E_p[g] = sum_i p_i g(i)."""
    parr = p.as_array() if isinstance(p, FiniteDistribution) else np.asarray(p, float)
    garr = g.as_array() if isinstance(g, FiniteObservable) else np.asarray(g, float)
    if parr.shape != garr.shape:
        raise ValueError(f"dimension mismatch: {parr.shape} vs {garr.shape}")
    return float(parr @ garr)


def _log_partition(G: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """log Z and the exponential-family distribution, max-shift stabilized."""
    w = -(beta @ G)
    shift = w.max()
    e = np.exp(w - shift)
    Z = e.sum()
    return float(shift + math.log(Z)), e / Z


def _check_affine_independence(G: np.ndarray) -> None:
    # Dependence relevant to the exponential family is affine: adding a
    # constant to an observable only shifts log Z.
    k, n = G.shape
    if k == 0:
        return
    centered = G - G.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[0] == 0 or s[-1] <= 1e-12 * max(n, k) * s[0]:
        _, _, vt = np.linalg.svd(centered.T, full_matrices=True)
        null = vt[-1]
        idx = int(np.argmax(np.abs(null)))
        raise RedundantObservableError(
            f"observable {idx} is affinely dependent on the others "
            f"(null combination {np.round(null, 6).tolist()})", index=idx)


@dataclass
class MaxEntSolution:
    """Dual variables, log partition value, and the resulting distribution."""

    betas: tuple[float, ...]
    log_partition: float
    distribution: FiniteDistribution
    entropy: float
    base: str
    residuals: tuple[float, ...]
    newton_steps: int

    def __post_init__(self):
        if any(abs(r) > 1e-6 for r in self.residuals):
            raise ValueError(f"constraint residuals too large: {self.residuals}")


def maxent_solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Damped Newton iteration on the smooth convex dual.

    Backtracking halves the step until the Armijo condition with constant
    1e-4 holds.  Once the predicted decrease is within 16 ulps of psi, that
    test is roundoff, and backtracking instead takes the longest step that
    strictly shrinks the moment gap ||alpha - E_p[g]||_inf.  Each point's
    log Z and p are computed once: the accepted candidate's serve the next
    step.  The iteration starts at beta = 0 (the uniform distribution) and
    stops when the moment gap drops to FEAS_TOL; a problem not solved in
    _MAX_NEWTON_STEPS (200) steps is refused.  A dual norm beyond 1e3 with a
    non-improving gap signals a target on or outside the attainable boundary.
    """
    G = problem.matrix()
    alpha = np.asarray(problem.targets, dtype=float)
    _check_affine_independence(G)

    beta = np.zeros(len(alpha))
    logZ, p = _log_partition(G, beta)
    best_grad_norm = math.inf
    for steps in range(1, _MAX_NEWTON_STEPS + 1):
        m = G @ p
        grad = alpha - m
        grad_norm = float(np.abs(grad).max(initial=0.0))
        if grad_norm <= FEAS_TOL:
            break
        if float(np.linalg.norm(beta, ord=np.inf)) > _BETA_GUARD \
                and grad_norm > 0.5 * best_grad_norm:
            raise InfeasibleTargetError(
                f"dual variables diverged (|beta| > {_BETA_GUARD:g}) with a "
                f"non-shrinking moment gap {grad_norm:.3g}; the targets "
                f"{alpha.tolist()} sit on or outside the attainable set")
        best_grad_norm = min(best_grad_norm, grad_norm)

        Gp = G * p
        cov = Gp @ G.T - np.outer(m, m)
        try:
            direction = -np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError:
            if float(np.linalg.norm(beta, ord=np.inf)) > _BETA_GUARD:
                raise InfeasibleTargetError(
                    f"covariance became singular while |beta| grew beyond "
                    f"{_BETA_GUARD:g}; targets {alpha.tolist()} are not interior")
            direction = -np.linalg.solve(cov + 1e-12 * np.eye(len(beta)), grad)

        psi0 = logZ + float(beta @ alpha)
        slope = float(grad @ direction)
        roundoff = -slope <= _ROUNDOFF_ULPS * math.ulp(abs(psi0))
        t = 1.0
        while t > 1e-12:
            candidate = beta + t * direction
            logZ_t, p_t = _log_partition(G, candidate)
            if (float(np.abs(alpha - G @ p_t).max()) < grad_norm if roundoff
                    else logZ_t + float(candidate @ alpha) <= psi0 + 1e-4 * t * slope):
                break
            t *= 0.5
        else:  # backtracking ran out: take the last, unevaluated, halving
            candidate = beta + t * direction
            logZ_t, p_t = _log_partition(G, candidate)
        beta, logZ, p = candidate, logZ_t, p_t
    else:
        raise InfeasibleTargetError(
            f"Newton did not reach tolerance {FEAS_TOL:g} in {_MAX_NEWTON_STEPS} steps; "
            f"remaining moment gap {best_grad_norm:.3g}")

    h_nats = logZ + float(beta @ m)
    h = h_nats / math.log(2) if problem.base == "bits" else h_nats
    return MaxEntSolution(betas=tuple(beta.tolist()), log_partition=logZ,
                          distribution=FiniteDistribution(tuple(p.tolist())),
                          entropy=h, base=problem.base, residuals=tuple((m - alpha).tolist()),
                          newton_steps=steps)
