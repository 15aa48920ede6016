"""Monte Carlo laboratory for the laws of large numbers.

Samplers draw iid sequences through each measure's own inverse transform
(``Measure.sampler``), applied to clipped uniforms.  Every replication runs
on its own substream keyed by (master seed, context, replication index), so
reports are bit-identical under any execution order or degree of
parallelism.

The deviation-probability experiment estimates
P(|S_n / n - m| > eps) across n, which decays for measures with a weak mean
and stays flat for the Cauchy family, whose sample means are again Cauchy:
averaging does not reduce the spread at all.  The stability demo makes that
visible as a two-sample distance between means of size n and single draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measures import Measure

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


@dataclass
class Sampler:
    """Reproducible iid sampler for a measure.

    ``truncation_bias`` is the discarded tail mass for comb measures (the
    drawn distribution is the comb renormalized on the kept atoms).  A
    measure with no sampler is refused here, with a MeasureError.
    """

    measure: Measure
    master_seed: int
    truncation_bias: float = field(init=False)

    def __post_init__(self):
        self._inverse, self.truncation_bias = self.measure.sampler()

    def draw(self, count: int, stream: Sequence[int] = (0,)) -> np.ndarray:
        """Deterministic iid draws: same (seed, stream, count) gives the same array."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = np.random.default_rng([int(self.master_seed), *map(int, stream)])
        u = rng.random(count)
        u = np.clip(u, 1e-300, 1.0 - 1e-16)  # keep inverse transforms finite
        return self._inverse(u)


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
