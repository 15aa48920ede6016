"""Monte Carlo laboratory for the laws of large numbers.

Samplers draw iid sequences through each measure's own inverse transform
(``Measure.sampler``), applied to clipped uniforms.  Each cell of an
experiment (one sample size n of the deviation experiment, or one side of
the stability demo) draws all its replications from one generator keyed by
(master seed, context, cell), row after row in blocks of at most ``_BLOCK``
doubles, so the same config and seed give the same report whatever the
block size.  The running-mean trajectory draws its one row from (seed, 3).

The deviation-probability experiment estimates
P(|S_n / n - m| > eps) across n, which decays for measures with a weak mean
and stays flat for the Cauchy family, whose sample means are again Cauchy:
averaging does not reduce the spread at all.  The stability demo makes that
visible as a two-sample distance between means of size n and single draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .measures import Measure, _number

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

_BLOCK = 2 ** 16  # doubles drawn at a time by the replication experiments


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
        count = _number("count", count, integer=True, ge=1)
        return next(self._rows(stream, 1, count))[0]

    def _rows(self, stream: Sequence[int], rows: int, n: int) -> Iterator[np.ndarray]:
        """``rows`` rows of n iid draws from the one generator keyed by
        (seed, *stream), in blocks of at most _BLOCK doubles (one row when n
        is larger).  The uniforms come in row order, so the block size never
        changes a draw.  Each block's uniforms are drawn into one buffer per
        call, which ``draw`` may transform in place: a block is valid until
        the next one is drawn."""
        rng = np.random.default_rng([int(self.master_seed), *map(int, stream)])
        per_block = max(1, _BLOCK // n)
        buffer = np.empty(min(per_block, rows) * n)
        for start in range(0, rows, per_block):
            k = min(per_block, rows - start)
            u = rng.random(out=buffer[:k * n])
            np.clip(u, 1e-300, 1.0 - 1e-16, out=u)  # keep inverse transforms finite
            yield self._inverse(u).reshape(k, n)

    def _row_means(self, stream: Sequence[int], rows: int, n: int) -> np.ndarray:
        """The sample mean of each of ``rows`` rows of n draws (see _rows)."""
        return np.concatenate([block.mean(axis=1) for block in self._rows(stream, rows, n)])


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
                    n_values: Sequence[int], replications: int) -> WllnReport:
    """Estimate the deviation probability for each n over R replications.

    The R replications of size n_i are the R rows drawn from the one
    generator (seed, 1, i).
    """
    m = _number("m", m)
    epsilon = _number("epsilon", epsilon, gt=0)
    if np.ndim(n_values) != 1 or len(n_values) == 0:
        raise ValueError(f"n_values must be a non-empty list of sizes, got {n_values!r}")
    n_values = tuple(_number(f"n_values[{i}]", n, integer=True, ge=1)
                     for i, n in enumerate(n_values))
    replications = _number("replications", replications, integer=True, ge=100)
    fractions = []
    for i, n in enumerate(n_values):
        means = s._row_means((1, i), replications, n)
        fractions.append(int(np.count_nonzero(np.abs(means - m) > epsilon)) / replications)
    return WllnReport(candidate_mean=m, epsilon=epsilon,
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
    n = _number("n", n, integer=True, ge=1)
    replications = _number("replications", replications, integer=True, ge=1000)
    means = s._row_means((2, 1), replications, n)
    singles = s.draw(replications, stream=(2, 2))
    return StabilityReport(n=n, replications=replications,
                           distance=two_sample_sup_distance(means, singles),
                           seed=s.master_seed)


def running_mean_trajectory(s: Sampler, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Running means S_k / k, k = 1..n, of the draws on stream (3,), summed with
    Kahan compensation to keep the trajectory bit-stable across platforms."""
    n = _number("n", n, integer=True, ge=1)
    x = s.draw(n, stream=(3,))
    totals = []
    total, comp = 0.0, 0.0
    for v in x.tolist():
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        totals.append(total)
    ks = np.arange(1, n + 1)
    return ks, np.array(totals) / ks  # one IEEE division per k, as total / k
