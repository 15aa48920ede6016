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

from .measures import _number

__all__ = [
    "SampleStatistic",
    "AxiomId",
    "AxiomReport",
    "CoincidenceReport",
    "check_axiom",
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

    def _rows(self, xs: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The exact row form: ``fn`` of the first ``n[i]`` entries of each
        row ``xs[i]``, as a tuple of floats.  Every reported residual and
        witness value comes from it."""
        return np.array([self.fn(tuple(row[:k])) for row, k in zip(xs.tolist(), n.tolist())])

    _screen_rows = _rows  # the form that screens trials


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


@dataclass(frozen=True)
class _RowwiseStatistic(SampleStatistic):
    """A built-in statistic with a numpy row form: ``rows`` maps a padded
    (r, k) array and the r row sizes ``n`` to the r statistics of the rows'
    first ``n[i]`` entries.  The harness uses it only to screen trials."""

    rows: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def _screen_rows(self, xs: np.ndarray, n: np.ndarray) -> np.ndarray:
        return self.rows(xs, n)


def _padded(xs: np.ndarray, n: np.ndarray, fill: float) -> np.ndarray:
    """``xs`` with every entry past its row's size replaced by ``fill``."""
    return np.where(np.arange(xs.shape[1]) < n[:, None], xs, fill)


def _mean_rows(xs: np.ndarray, n: np.ndarray) -> np.ndarray:
    return _padded(xs, n, 0.0).sum(axis=1) / n


def _median_rows(xs: np.ndarray, n: np.ndarray) -> np.ndarray:
    s = np.sort(_padded(xs, n, np.inf), axis=1)  # the padding sorts last
    r = np.arange(len(s))
    return 0.5 * (s[r, (n - 1) // 2] + s[r, n // 2])  # 0.5 * (x + x) is x


mean_statistic = _RowwiseStatistic("mean", _mean, _mean_rows)
median_statistic = _RowwiseStatistic("median", _median, _median_rows)
min_statistic = _RowwiseStatistic("min", lambda xs: min(xs),
                                  lambda xs, n: _padded(xs, n, np.inf).min(axis=1))
max_statistic = _RowwiseStatistic("max", lambda xs: max(xs),
                                  lambda xs, n: _padded(xs, n, -np.inf).max(axis=1))
midrange_statistic = _RowwiseStatistic(
    "midrange", _midrange, lambda xs, n: 0.5 * (min_statistic.rows(xs, n)
                                                + max_statistic.rows(xs, n)))


def convex_combination(t: float) -> SampleStatistic:
    """t * mean + (1 - t) * median for t in [0, 1]."""
    t = _number("convex weight", t, ge=0.0)
    if t > 1.0:
        raise ValueError(f"convex weight must be <= 1, got {t!r}")
    return _RowwiseStatistic(
        f"convex({t:g})", lambda xs: t * _mean(xs) + (1.0 - t) * _median(xs),
        lambda xs, n: t * _mean_rows(xs, n) + (1.0 - t) * _median_rows(xs, n))


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


# Rows per block of trials.  The schedule does not depend on ``trials``, so
# the first t trials are the same for every budget of at least t.
_BLOCK_ROWS = (64, 512, 2048)

# The screen flags a row for the exact form when its numpy residual comes
# within this band of the tolerance (or its margin, for the order axioms).
# Drawn entries, scale factors and shifts are at most 30 in size, so a
# row-wise mean over at most 8 of them differs from the ``math.fsum`` mean
# by less than 1e-13; the other built-ins are computed by the same float
# operations in both forms.  tests/test_axioms.py checks both claims.
_SCREEN_BAND = 1e-12


def _draw_block(rng: np.random.Generator, axiom: AxiomId, start: int, rows: int,
                min_n: int) -> dict[str, np.ndarray]:
    """Witness columns of trials ``start .. start + rows - 1``: sizes ``n``
    in min_n..8, entries ``xs`` uniform in [-10, 10] padded to 8 columns
    (the edge tuples fill the first trials), then the columns of ``axiom``."""
    n = rng.integers(min_n, 9, size=rows)
    xs = rng.uniform(-10.0, 10.0, size=(rows, 8))
    for t, edge in enumerate(_EDGE_TUPLES[start:start + rows]):
        n[t] = len(edge)
        xs[t, :len(edge)] = edge
    block = {"n": n, "xs": xs}
    if axiom in (AxiomId.H, AxiomId.PH):
        block["lam"] = rng.uniform(0.1, 3.0, size=rows) if axiom is AxiomId.PH \
            else rng.uniform(-3.0, 3.0, size=rows)
    elif axiom is AxiomId.S:
        # the ranks of n uniform keys form a uniform permutation; padding sorts last
        keys = rng.uniform(size=(rows, 8))
        keys[np.arange(8) >= n[:, None]] = 2.0
        block["perm"] = np.argsort(keys, axis=1)
    elif axiom is AxiomId.T:
        block["c"] = rng.uniform(-10.0, 10.0, size=rows)
    elif axiom is AxiomId.ADD:
        block["ys"] = rng.uniform(-10.0, 10.0, size=(rows, 8))
    elif axiom is not AxiomId.COND:
        if axiom is AxiomId.NN:
            deltas = rng.uniform(0.0, 2.0, size=(rows, 8))
            deltas[np.arange(rows), rng.integers(0, n)] = 0.0  # allow ties
        elif axiom is AxiomId.P:
            deltas = np.zeros((rows, 8))
            raised = rng.integers(0, n)
            deltas[np.arange(rows), raised] = rng.uniform(0.1, 2.0, size=rows)
        else:
            deltas = rng.uniform(0.1, 2.0, size=(rows, 8))
        block["ys"] = xs + deltas
    return block


def _witness(block: dict[str, np.ndarray], i: int) -> dict:
    """The axiom instance of row ``i``: tuples cut to the row's size."""
    n = int(block["n"][i])
    return {key: tuple(col[i, :n].tolist()) if col.ndim == 2 else col[i].item()
            for key, col in block.items() if key != "n"}


def _judge(rows: Callable[[np.ndarray, np.ndarray], np.ndarray], axiom: AxiomId,
           cols: dict, n: np.ndarray, band: float
           ) -> tuple[np.ndarray, np.ndarray, Callable[[int], dict]]:
    """Judge ``axiom`` on r instances of any tuple sizes with the row form
    ``rows`` (a padded (r, k) array and the r row sizes in, r statistics
    out); ``cols`` holds their columns as ``_draw_block`` gives them, ``n``
    their sizes, and a condensation witness may fix its split ``m``.
    Returns the residuals, whether each violates AXIOM_TOL or comes within
    ``band`` of it (positivity: a margin not above the tolerance), and
    ``keep``: keep(i) is the dict of values the witness of instance i keeps,
    the first worst split ``m`` and its ``substat`` for COND and the
    ``margin`` for P and SP."""
    xs = cols["xs"]
    keep = lambda i: {}
    if axiom in (AxiomId.H, AxiomId.PH):
        lam = cols["lam"]
        resid = np.abs(rows(lam[:, None] * xs, n) - lam * rows(xs, n))
    elif axiom is AxiomId.S:
        resid = np.abs(rows(np.take_along_axis(xs, cols["perm"], axis=1), n) - rows(xs, n))
    elif axiom is AxiomId.T:
        c = cols["c"]
        resid = np.abs(rows(xs + c[:, None], n) - (rows(xs, n) + c))
    elif axiom is AxiomId.ADD:
        ys = cols["ys"]
        resid = np.abs(rows(xs + ys, n) - (rows(xs, n) + rows(ys, n)))
    elif axiom is AxiomId.COND:
        # every split m < n of every instance, all in one pass
        splits = np.atleast_1d(cols["m"]) if "m" in cols else np.arange(2, xs.shape[1])
        valid = splits[:, None] < n
        j, i = np.nonzero(valid)
        sub = rows(xs[i], splits[j])
        condensed = np.where(np.arange(xs.shape[1]) < splits[j, None], sub[:, None], xs[i])
        subs, gaps = np.full(valid.shape, np.nan), np.full(valid.shape, np.nan)
        subs[valid] = sub
        gaps[valid] = np.abs(rows(condensed, n[i]) - rows(xs, n)[i])
        # a NaN gap is no violation, and the check is vacuous below n = 3
        resid = np.fmax(0.0, np.fmax.reduce(gaps, axis=0))

        def keep(i):
            j = np.flatnonzero(gaps[:, i] == resid[i])[0]
            return {"m": int(splits[j]), "substat": subs[j, i].item()}
    elif axiom is AxiomId.NN:
        resid = np.maximum(0.0, rows(xs, n) - rows(cols["ys"], n))
    else:  # P, SP: the increase must be clearly positive
        margin = rows(cols["ys"], n) - rows(xs, n)
        resid = (np.maximum(0.0, AXIOM_TOL - margin)
                 + np.where(margin <= AXIOM_TOL, AXIOM_TOL, 0.0))
        return resid, margin <= AXIOM_TOL + band, lambda i: {"margin": margin[i].item()}
    return resid, resid > AXIOM_TOL - band, keep


def recheck(stat: SampleStatistic, axiom: AxiomId, counterexample: dict) -> float:
    """Re-evaluate a stored counterexample (condensation at its stored
    split ``m``); returns its residual."""
    cols = {key: value if key == "m" else np.array([value])
            for key, value in counterexample.items()}
    return _judge(stat._rows, axiom, cols, np.array([len(cols["xs"][0])]), 0.0)[0][0].item()


def check_axiom(stat: SampleStatistic, axiom: AxiomId, trials: int = 1000,
                seed: int = 0) -> AxiomReport:
    """Run the harness for one axiom.

    Trials draw tuples of size 1..8 with entries uniform in [-10, 10]
    (size >= 3 for condensation and additivity, which are vacuous or trivial
    below that), preceded by the deterministic edge tuples.  One generator,
    ``np.random.default_rng(seed)``, draws the trials in blocks of a fixed
    schedule, so the first t trials do not depend on ``trials``; a block is
    drawn only when the trials before it pass.  ``_judge`` screens each
    block once, all tuple sizes together, with a built-in's numpy row form
    or else the exact form, and judges the flagged rows again one by one in
    trial order with the exact form (``fn`` of each tuple).  The first
    violation of AXIOM_TOL is reported, with its residual from the exact
    form, which ``recheck`` reproduces exactly.
    """
    trials = _number("trials", trials, integer=True, ge=1)
    min_n = 3 if axiom in (AxiomId.COND, AxiomId.ADD) else 1
    rng = np.random.default_rng(seed)
    start, k = 0, 0
    while start < trials:
        size = _BLOCK_ROWS[min(k, len(_BLOCK_ROWS) - 1)]
        block = _draw_block(rng, axiom, start, size, min_n)
        block = {key: col[:trials - start] for key, col in block.items()}
        sizes = block["n"]
        flagged = _judge(stat._screen_rows, axiom, block, sizes, _SCREEN_BAND)[1]
        for i in np.flatnonzero(flagged & (sizes >= min_n)):  # short edge tuples skip
            row = {key: col[i:i + 1] for key, col in block.items()}
            resid, violated, keep = _judge(stat._rows, axiom, row, sizes[i:i + 1], 0.0)
            if violated[0]:
                return AxiomReport(statistic=stat.name, axiom=axiom, passed=False,
                                   trials=start + int(i) + 1, seed=seed,
                                   counterexample={**_witness(block, i), **keep(0)},
                                   residual=resid[0].item())
        start, k = start + size, k + 1
    return AxiomReport(statistic=stat.name, axiom=axiom, passed=True,
                       trials=trials, seed=seed)


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
    """Trials draw a point, a pair and a triple from one generator,
    ``np.random.default_rng(seed)``; the first triple is (0, 1, 5)."""
    trials = _number("trials", trials, integer=True, ge=1)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-10, 10, size=trials).tolist()
    pairs = rng.uniform(-10, 10, size=(trials, 2)).tolist()
    triples = rng.uniform(-10, 10, size=(trials, 3)).tolist()
    triples[:1] = [[0.0, 1.0, 5.0]]
    r1 = r2 = 0.0
    divergence = None
    for x, pair, triple in zip(points, pairs, triples):
        mid = 0.5 * (pair[0] + pair[1])
        for s in (stat_a, stat_b):
            r1 = max(r1, abs(s((x,)) - x))
            r2 = max(r2, abs(s(pair) - mid))
        if divergence is None:
            va, vb = stat_a(triple), stat_b(triple)
            if abs(va - vb) > AXIOM_TOL:
                divergence = {"xs": tuple(triple), stat_a.name: va, stat_b.name: vb,
                              "residual": abs(va - vb)}
    return CoincidenceReport(stat_a=stat_a.name, stat_b=stat_b.name,
                             max_residual_n1=r1, max_residual_n2=r2,
                             trials=trials, seed=seed, divergence_n3=divergence)
