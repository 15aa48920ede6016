"""Monte Carlo laboratory for the laws of large numbers.

Samplers draw iid sequences from the built-in measures (inverse transform
for the gaussian and cauchy families, index inversion over atom weights for
combs, uniform picks for empirical measures).  Every replication runs on its
own substream keyed by (master seed, context, replication index), so reports
are bit-identical under any execution order or degree of parallelism.

The deviation-probability experiment estimates
P(|S_n / n - m| > eps) across n, which decays for measures with a weak mean
and stays flat for the Cauchy family, whose sample means are again Cauchy:
averaging does not reduce the spread at all.  The stability demo makes that
visible as a two-sample distance between means of size n and single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .measures import Affine, AtomicComb, EmpiricalMeasure, Measure, MeasureError

__all__ = [
    "Sampler",
    "WllnReport",
    "StabilityReport",
    "build_sampler",
    "wlln_experiment",
    "cauchy_stability_demo",
    "running_mean_trajectory",
    "two_sample_sup_distance",
]

_COMB_CUTOFF_TOL = 1e-12


def _draw_recursive(measure: Measure, u: np.ndarray,
                    comb_table: Optional[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Map uniforms in (0, 1) through the measure's inverse transform."""
    if isinstance(measure, Affine):
        return measure.s * _draw_recursive(measure.inner, u, comb_table) + measure.a
    family = getattr(measure, "family", "")
    if family == "gaussian":
        from scipy.special import ndtri
        return measure.mu + measure.sigma * ndtri(u)
    if family == "cauchy":
        return measure.loc + measure.gamma * np.tan(np.pi * (u - 0.5))
    if isinstance(measure, EmpiricalMeasure):
        idx = np.minimum((u * measure.samples.size).astype(int),
                         measure.samples.size - 1)
        return measure.samples[idx]
    if isinstance(measure, AtomicComb):
        locations, cum = comb_table
        idx = np.searchsorted(cum, u, side="right")
        return locations[np.minimum(idx, len(locations) - 1)]
    raise MeasureError(f"no sampler for measure family {family!r}")


def _comb_table(measure: Measure) -> tuple[Optional[tuple[np.ndarray, np.ndarray]], float]:
    """Truncated, renormalized atom table for index inversion.

    Returns (table, bias) where bias bounds the truncated tail mass."""
    inner = measure
    while isinstance(inner, Affine):
        inner = inner.inner
    if not isinstance(inner, AtomicComb):
        return None, 0.0
    n = 1
    while inner.tail_mass_bound(n) >= _COMB_CUTOFF_TOL:
        n += 1
        if n > 10_000:
            raise MeasureError(
                f"{inner.family}: tail bound never fell below the sampling "
                f"cutoff {_COMB_CUTOFF_TOL:g}")
    atoms = []
    for k in range(1, n + 1):
        atoms.extend(inner._block(k))
    bias = inner.tail_mass_bound(n)
    locations = np.array([a.location for a in atoms])
    weights = np.array([a.weight for a in atoms])
    cum = np.cumsum(weights / weights.sum())
    return (locations, cum), float(bias)


@dataclass
class Sampler:
    """Reproducible iid sampler for a measure.

    ``truncation_bias`` is the discarded tail mass for comb measures (the
    drawn distribution is the comb renormalized on the kept atoms).
    """

    measure: Measure
    master_seed: int
    truncation_bias: float = 0.0

    def __post_init__(self):
        self._table, self.truncation_bias = _comb_table(self.measure)

    def _rng(self, stream: Sequence[int]) -> np.random.Generator:
        return np.random.default_rng([int(self.master_seed), *map(int, stream)])

    def draw(self, count: int, stream: Sequence[int] = (0,)) -> np.ndarray:
        """Deterministic iid draws: same (seed, stream, count) gives the same array."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = self._rng(stream)
        u = rng.random(count)
        u = np.clip(u, 1e-300, 1.0 - 1e-16)  # keep inverse transforms finite
        return _draw_recursive(self.measure, u, self._table)


def build_sampler(measure: Measure, seed: int = 0) -> Sampler:
    return Sampler(measure=measure, master_seed=seed)


@dataclass
class WllnReport:
    """Deviation fractions P_hat(|S_n/n - m| > eps) per sample size."""

    candidate_mean: float
    epsilon: float
    n_values: tuple[int, ...]
    replications: int
    fractions: tuple[float, ...]
    seed: int
    truncation_bias: float = 0.0


def wlln_experiment(s: Sampler, m: float, epsilon: float,
                    n_schedule: Sequence[int], replications: int) -> WllnReport:
    """Estimate the deviation probability for each n over R replications.

    Replication j of size n_i runs on substream (seed, 1, i, j); fractions
    are averages of indicator variables, so aggregation order is immaterial.
    """
    if replications < 100:
        raise ValueError(f"needs >= 100 replications, got {replications}")
    n_values = tuple(int(n) for n in n_schedule)
    fractions = []
    for i, n in enumerate(n_values):
        deviations = 0
        for j in range(replications):
            x = s.draw(n, stream=(1, i, j))
            if abs(float(np.mean(x)) - m) > epsilon:
                deviations += 1
        fractions.append(deviations / replications)
    return WllnReport(candidate_mean=float(m), epsilon=float(epsilon),
                      n_values=n_values, replications=replications,
                      fractions=tuple(fractions), seed=s.master_seed,
                      truncation_bias=s.truncation_bias)


def two_sample_sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance between two empirical CDFs (two-sample KS statistic)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass
class StabilityReport:
    n: int
    replications: int
    distance: float
    seed: int


def cauchy_stability_demo(s: Sampler, n: int, replications: int) -> StabilityReport:
    """Sup distance between R means of size n and R fresh single draws.

    For the Cauchy family both samples share one law, so the distance sits
    at two-sample noise scale ~ sqrt(2 / R); for integrable measures the
    means contract and the distance is macroscopic.
    """
    if replications < 1000:
        raise ValueError(f"needs >= 1000 replications, got {replications}")
    means = np.array([float(np.mean(s.draw(n, stream=(2, 1, j))))
                      for j in range(replications)])
    singles = np.array([float(s.draw(1, stream=(2, 2, j))[0])
                        for j in range(replications)])
    return StabilityReport(n=int(n), replications=int(replications),
                           distance=two_sample_sup_distance(means, singles),
                           seed=s.master_seed)


def running_mean_trajectory(s: Sampler, n: int,
                            stream: Sequence[int] = (3,)) -> tuple[np.ndarray, np.ndarray]:
    """Running means S_k / k for k = 1..n with compensated (Kahan) summation,
    keeping the trajectory bit-stable across platforms."""
    x = s.draw(n, stream=stream)
    means = np.empty(n)
    total, comp = 0.0, 0.0
    for k in range(n):
        y = x[k] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        means[k] = total / (k + 1)
    return np.arange(1, n + 1), means
