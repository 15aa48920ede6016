"""Finitary sample statistics and a randomized axiom harness.

A sample statistic is a family of functions f_n on n-tuples, one for every
n >= 1.  The harness checks the defining identity or inequality of each
axiom on randomized tuples plus deterministic edge tuples, and returns a
re-checkable counterexample when one is found.

Axioms: homogeneity (H), symmetry (S), translation invariance (T),
condensation (COND: replacing any leading sub-tuple by copies of its own
statistic leaves the value unchanged), positive homogeneity (PH),
nonnegativity (NN), positivity (P), strict positivity (SP), and
additivity (ADD).  Condensation is what separates the arithmetic mean from
the median and the other rank statistics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SampleStatistic",
    "AxiomId",
    "AxiomReport",
    "CoincidenceReport",
    "check_axiom",
    "check_axioms",
    "two_point_coincidence",
    "builtin_statistic",
    "convex_combination",
    "mean_statistic",
    "median_statistic",
    "BUILTIN_STATISTICS",
    "AXIOM_TOL",
]

AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class SampleStatistic:
    name: str
    fn: Callable[[tuple[float, ...]], float]

    def __call__(self, xs: Sequence[float]) -> float:
        """Apply f_n to a nonempty tuple."""
        xs = tuple(float(x) for x in xs)
        if not xs:
            raise ValueError(f"{self.name}: statistic of an empty tuple")
        return self.fn(xs)


def _mean(xs: tuple[float, ...]) -> float:
    return math.fsum(xs) / len(xs)


def _median(xs: tuple[float, ...]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    if n % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def _midrange(xs: tuple[float, ...]) -> float:
    return 0.5 * (min(xs) + max(xs))


mean_statistic = SampleStatistic("mean", _mean)
median_statistic = SampleStatistic("median", _median)
midrange_statistic = SampleStatistic("midrange", _midrange)
min_statistic = SampleStatistic("min", lambda xs: min(xs))
max_statistic = SampleStatistic("max", lambda xs: max(xs))


def convex_combination(t: float) -> SampleStatistic:
    """t * mean + (1 - t) * median for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"convex weight must lie in [0, 1], got {t}")
    return SampleStatistic(f"convex({t:g})",
                           lambda xs: t * _mean(xs) + (1.0 - t) * _median(xs))


BUILTIN_STATISTICS = {
    "mean": mean_statistic,
    "median": median_statistic,
    "midrange": midrange_statistic,
    "min": min_statistic,
    "max": max_statistic,
}


def builtin_statistic(name: str) -> SampleStatistic:
    """Look up a built-in by name; ``convex:t`` builds a convex combination."""
    if name in BUILTIN_STATISTICS:
        return BUILTIN_STATISTICS[name]
    if name.startswith("convex:"):
        return convex_combination(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown statistic {name!r}")


class AxiomId(enum.Enum):
    H = "homogeneity"
    S = "symmetry"
    T = "translation_invariance"
    COND = "condensation"
    PH = "positive_homogeneity"
    NN = "nonnegativity"
    P = "positivity"
    SP = "strict_positivity"
    ADD = "additivity"


@dataclass
class AxiomReport:
    """Outcome of one axiom check; failures carry a re-checkable witness."""

    statistic: str
    axiom: AxiomId
    passed: bool
    trials: int
    seed: int
    axiom_tol: float
    counterexample: Optional[dict] = None
    residual: Optional[float] = None


# Edge tuples exercised before the random stream: all-zero, all-equal,
# duplicates, and the canonical median-vs-mean separator (0, 1, 5).
_EDGE_TUPLES = [
    (0.0,),
    (0.0, 0.0, 0.0),
    (2.5, 2.5, 2.5, 2.5),
    (1.0, 1.0, 5.0),
    (0.0, 1.0, 5.0),
    (-3.0, -3.0, 0.0, 7.0, 7.0),
]


def _trial_tuple(rng: np.random.Generator, min_n: int = 1) -> tuple[float, ...]:
    n = int(rng.integers(min_n, 9))
    return tuple(rng.uniform(-10.0, 10.0, size=n))


def _check_once(stat: SampleStatistic, axiom: AxiomId,
                xs: tuple[float, ...], rng: np.random.Generator,
                tol: float) -> tuple[bool, float, dict]:
    """Evaluate one axiom instance; returns (violated, residual, witness)."""
    n = len(xs)
    if axiom in (AxiomId.H, AxiomId.PH):
        lam = float(rng.uniform(0.1, 3.0)) if axiom is AxiomId.PH \
            else float(rng.uniform(-3.0, 3.0))
        lhs = stat(tuple(lam * x for x in xs))
        rhs = lam * stat(xs)
        resid = abs(lhs - rhs)
        return resid > tol, resid, {"xs": xs, "lam": lam}
    if axiom is AxiomId.S:
        perm = tuple(int(i) for i in rng.permutation(n))
        lhs = stat(tuple(xs[i] for i in perm))
        rhs = stat(xs)
        resid = abs(lhs - rhs)
        return resid > tol, resid, {"xs": xs, "perm": perm}
    if axiom is AxiomId.T:
        c = float(rng.uniform(-10.0, 10.0))
        lhs = stat(tuple(x + c for x in xs))
        rhs = stat(xs) + c
        resid = abs(lhs - rhs)
        return resid > tol, resid, {"xs": xs, "c": c}
    if axiom is AxiomId.COND:
        worst, witness = 0.0, None
        for m in range(2, n):
            sub = stat(xs[:m])
            lhs = stat((sub,) * m + xs[m:])
            resid = abs(lhs - stat(xs))
            if resid > worst:
                worst, witness = resid, {"xs": xs, "m": m, "substat": sub}
        return worst > tol, worst, witness or {"xs": xs}
    if axiom is AxiomId.ADD:
        ys = tuple(rng.uniform(-10.0, 10.0, size=n))
        lhs = stat(tuple(x + y for x, y in zip(xs, ys)))
        rhs = stat(xs) + stat(ys)
        resid = abs(lhs - rhs)
        return resid > tol, resid, {"xs": xs, "ys": ys}
    if axiom in (AxiomId.NN, AxiomId.P, AxiomId.SP):
        if axiom is AxiomId.NN:
            deltas = rng.uniform(0.0, 2.0, size=n)
            deltas[rng.integers(0, n)] = 0.0  # allow ties
        elif axiom is AxiomId.P:
            deltas = np.zeros(n)
            deltas[int(rng.integers(0, n))] = float(rng.uniform(0.1, 2.0))
        else:
            deltas = rng.uniform(0.1, 2.0, size=n)
        ys = tuple(x + d for x, d in zip(xs, deltas))
        margin = stat(ys) - stat(xs)
        if axiom is AxiomId.NN:
            resid = max(0.0, -margin)
            return resid > tol, resid, {"xs": xs, "ys": ys}
        # strict variants: the increase must be clearly positive
        violated = margin <= tol
        resid = max(0.0, tol - margin) + (tol if violated else 0.0)
        return violated, resid, {"xs": xs, "ys": ys, "margin": margin}
    raise ValueError(f"unhandled axiom {axiom}")


def recheck(stat: SampleStatistic, axiom: AxiomId, counterexample: dict,
            axiom_tol: float = AXIOM_TOL) -> float:
    """Re-evaluate a stored counterexample; returns its residual."""
    xs = tuple(counterexample["xs"])
    if axiom in (AxiomId.H, AxiomId.PH):
        lam = counterexample["lam"]
        return abs(stat(tuple(lam * x for x in xs)) - lam * stat(xs))
    if axiom is AxiomId.S:
        perm = counterexample["perm"]
        return abs(stat(tuple(xs[i] for i in perm)) - stat(xs))
    if axiom is AxiomId.T:
        c = counterexample["c"]
        return abs(stat(tuple(x + c for x in xs)) - (stat(xs) + c))
    if axiom is AxiomId.COND:
        m = counterexample["m"]
        sub = stat(xs[:m])
        return abs(stat((sub,) * m + xs[m:]) - stat(xs))
    if axiom is AxiomId.ADD:
        ys = tuple(counterexample["ys"])
        return abs(stat(tuple(x + y for x, y in zip(xs, ys))) - (stat(xs) + stat(ys)))
    ys = tuple(counterexample["ys"])
    margin = stat(ys) - stat(xs)
    if axiom is AxiomId.NN:
        return max(0.0, -margin)
    return max(0.0, axiom_tol - margin) + (axiom_tol if margin <= axiom_tol else 0.0)


def check_axiom(stat: SampleStatistic, axiom: AxiomId, trials: int = 1000,
                seed: int = 0, axiom_tol: float = AXIOM_TOL) -> AxiomReport:
    """Run the harness for one axiom.

    Trials draw tuples of size 1..8 with entries uniform in [-10, 10]
    (size >= 3 for condensation and additivity, which are vacuous or trivial
    below that), preceded by the deterministic edge tuples.  Each trial uses
    a substream keyed by (seed, trial index), so the report is independent
    of evaluation order; the first violation in trial order is reported.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    min_n = 3 if axiom in (AxiomId.COND, AxiomId.ADD) else 1
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        if t < len(_EDGE_TUPLES):
            xs = _EDGE_TUPLES[t]
            if len(xs) < min_n:
                continue
        else:
            xs = _trial_tuple(rng, min_n)
        violated, resid, witness = _check_once(stat, axiom, xs, rng, axiom_tol)
        if violated:
            return AxiomReport(statistic=stat.name, axiom=axiom, passed=False,
                               trials=t + 1, seed=seed, axiom_tol=axiom_tol,
                               counterexample=witness, residual=resid)
    return AxiomReport(statistic=stat.name, axiom=axiom, passed=True,
                       trials=trials, seed=seed, axiom_tol=axiom_tol)


def check_axioms(stat: SampleStatistic, axioms: Sequence[AxiomId] = tuple(AxiomId),
                 trials: int = 1000, seed: int = 0,
                 axiom_tol: float = AXIOM_TOL) -> dict[AxiomId, AxiomReport]:
    return {ax: check_axiom(stat, ax, trials, seed, axiom_tol) for ax in axioms}


@dataclass
class CoincidenceReport:
    """Agreement of two statistics with the two-point mean, plus the first
    divergence at size three.

    Any statistic satisfying homogeneity, symmetry, and translation
    invariance is forced to be the identity at n = 1 and the midpoint at
    n = 2, so both residuals should vanish for such statistics.
    """

    stat_a: str
    stat_b: str
    max_residual_n1: float
    max_residual_n2: float
    trials: int
    seed: int
    divergence_n3: Optional[dict] = None


def two_point_coincidence(stat_a: SampleStatistic, stat_b: SampleStatistic,
                          trials: int = 200, seed: int = 0) -> CoincidenceReport:
    r1 = r2 = 0.0
    divergence = None
    probes3 = [(0.0, 1.0, 5.0)]
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = float(rng.uniform(-10, 10))
        pair = tuple(rng.uniform(-10, 10, size=2))
        mid = 0.5 * (pair[0] + pair[1])
        for s in (stat_a, stat_b):
            r1 = max(r1, abs(s((x,)) - x))
            r2 = max(r2, abs(s(pair) - mid))
        triple = probes3[0] if t == 0 else tuple(rng.uniform(-10, 10, size=3))
        if divergence is None:
            va, vb = stat_a(triple), stat_b(triple)
            if abs(va - vb) > AXIOM_TOL:
                divergence = {"xs": triple, stat_a.name: va, stat_b.name: vb,
                              "residual": abs(va - vb)}
    return CoincidenceReport(stat_a=stat_a.name, stat_b=stat_b.name,
                             max_residual_n1=r1, max_residual_n2=r2,
                             trials=trials, seed=seed, divergence_n3=divergence)
