"""Truncated-window means, their five-way classification, and regularizers.

For a probability measure P and center c, the partial mean over the window
[c - M, c + M] either settles as M grows or it does not, and the possible
limit behaviors over all centers fall into exactly five cases:

  I           no center has a limit;
  II          exactly one center has a finite limit;
  III_finite  every center has the same finite limit (this common value is
              the doubly weak mean);
  III_+inf /
  III_-inf    every center diverges to the same signed infinity;
  IV          divergence to +inf above a threshold center, no limit below;
  V           divergence to -inf below a threshold center, no limit above.

This module discretizes M -> infinity along a geometric truncation schedule,
augments the schedule for atomic measures with probe radii that straddle
every atom-crossing event (oscillations driven by thin bands near atoms are
invisible to any fixed generic schedule), and classifies the resulting
series with explicit finite-evidence decision rules.  Verdicts are numerical
evidence at the schedule horizon, never proofs.

It also provides the one-sided scans behind the ordinary-mean verdict, the
tail curve n * P(|X| > n) for n up to 1e6 behind the weak mean, the partial
means over closed asymmetric windows, whose path dependence separates
integrable from non-integrable measures, and two multiplier (mollifier)
families that force integrability before taking the damping to zero.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .measures import Measure, MeasureError, _median, _middle, _number, _split_rule

__all__ = [
    "TruncationSchedule",
    "VerdictPolicy",
    "PartialMeanSeries",
    "LimitVerdict",
    "TaxonomyReport",
    "MeanLadder",
    "TailMassCurve",
    "MultiplierSeries",
    "WindowMultiplier",
    "ExpTiltMultiplier",
    "DEFAULT_C_GRID",
    "limit_scan",
    "classify_taxonomy",
    "asym_partial_mean",
    "tail_mass_curve",
    "mean_ladder",
    "multiplier_mean",
]

DEFAULT_C_GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)

_LOG_MAX = math.log(sys.float_info.max)

# Verdict kinds
CONVERGED = "converged"
DIVERGES_PLUS = "diverges_plus"
DIVERGES_MINUS = "diverges_minus"
OSC_BOUNDED = "oscillates_bounded"
OSC_UNBOUNDED_ABOVE = "oscillates_unbounded_above"
OSC_UNBOUNDED_BELOW = "oscillates_unbounded_below"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class TruncationSchedule:
    """Geometric half-width schedule M_k = m0 * ratio^k, k = 0..count-1.

    A scan evaluates the closed windows [c - M_k, c + M_k] at exactly these
    radii, plus, for atomic measures, the midpoints of the gaps between atom
    crossings.  A window whose boundary lands on an atom counts that atom.
    The non-dyadic defaults keep window boundaries off the dyadic and triadic
    atom grids of the built-in combs.
    """

    m0: float = 1.1
    ratio: float = 1.5
    count: int = 60

    def __post_init__(self):
        _number("schedule m0", self.m0, gt=0)
        _number("schedule ratio", self.ratio, gt=1)
        _number("schedule count", self.count, integer=True, ge=1)
        # Checked in log space: computing the horizon itself would overflow.
        growth = (self.count - 1) * math.log(self.ratio)
        if not (growth < _LOG_MAX and math.log(self.m0) + growth < _LOG_MAX):
            raise ValueError(
                f"schedule horizon m0 * ratio^(count - 1) is not finite "
                f"(m0={self.m0}, ratio={self.ratio}, count={self.count})")

    def radii(self) -> np.ndarray:
        return self.m0 * self.ratio ** np.arange(self.count, dtype=float)

    @property
    def horizon(self) -> float:
        """The last radius scanned."""
        return float(self.radii()[-1])


@dataclass(frozen=True)
class VerdictPolicy:
    """Finite-evidence decision rules for series classification.

    With W = ``window`` and tol = conv_scale * max(1, |median of last W|):

    * converged: spread of the last W values <= tol;
    * diverges up: the minima of the last three W-blocks rise by more than
      tol at each step and the final value exceeds ``div_threshold``
      (mirrored downward), so minima equal up to rounding never count as
      rising;
    * oscillates unbounded above: the maxima of the last three W-blocks grow
      as in divergence while the minima stay in a band bounded by
      ``div_threshold`` (mirrored below);
    * oscillates bounded: every one of the last three W-blocks has spread
      above tol and all values stay within ``div_threshold``;
    * otherwise undetermined.
    """

    window: int = 8
    conv_scale: float = 1e-6
    div_threshold: float = 1e4
    max_probes: int = 400
    tail_tol: float = 1e-3

    def __post_init__(self):
        for name, least in (("window", 1), ("max_probes", 0)):
            _number(f"policy {name}", getattr(self, name), integer=True, ge=least)
        for name in ("conv_scale", "div_threshold", "tail_tol"):
            _number(f"policy {name}", getattr(self, name), gt=0)


@dataclass
class PartialMeanSeries:
    """Partial means s_k = int_{[c - M_k, c + M_k]} x dP along the schedule.

    ``is_probe`` marks radii inserted to straddle atom-crossing events; the
    entries at ``~is_probe`` are exactly the schedule's geometric grid.
    The ladder's one-sided scans reuse this record for the windows
    [c, c + M_k] and [c - M_k, c].
    """

    center: float
    radii: np.ndarray
    values: np.ndarray
    masses: np.ndarray
    is_probe: np.ndarray
    horizon: float

    def __post_init__(self):
        n = len(self.radii)
        if not (len(self.values) == len(self.masses) == len(self.is_probe) == n):
            raise ValueError("series arrays must share one length")


@dataclass
class LimitVerdict:
    """Classification of one partial-mean series at the schedule horizon."""

    kind: str
    value: Optional[float] = None
    liminf_est: Optional[float] = None
    limsup_est: Optional[float] = None
    spread: Optional[float] = None
    conv_tol: Optional[float] = None
    window: int = 8
    horizon: Optional[float] = None

    @property
    def oscillates(self) -> bool:
        return self.kind in (OSC_BOUNDED, OSC_UNBOUNDED_ABOVE, OSC_UNBOUNDED_BELOW)


# Atoms beyond this count get no probes; dense combs rely on closed forms.
_PROBE_ATOM_CAP = 50_000


def _scan_radii(locations: np.ndarray, center: float, base: np.ndarray,
                max_probes: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's radii plus probe radii, sorted; returns (radii, is_probe).

    Probes are the midpoints between consecutive atom-crossing radii
    |z - c| inside the base range (thinned evenly to ``max_probes``).
    The partial mean at center c is a pure jump function of M for atomic
    measures, constant between crossings; sampling each gap exposes every
    value the series takes inside the horizon.  Windows are closed, so a
    radius whose boundary c +- M lands on an atom counts that atom, and the
    schedule's radii are kept exactly as given.
    """
    crossings = np.abs(locations - center)
    crossings = np.sort(crossings[(base[0] <= crossings) & (crossings <= base[-1])])
    # No probe between radii within 4 ulps: equal radii count once, and so do
    # those of atoms that cross together, which an affine image splits by an ulp.
    apart = crossings[1:] - crossings[:-1] > 4 * np.spacing(crossings[1:])
    probes = 0.5 * (crossings[:-1] + crossings[1:])[apart]
    if len(probes) > max_probes:
        idx = np.linspace(0, len(probes) - 1, max_probes).round().astype(int)
        probes = probes[idx]  # steps above 1: no index repeats
    radii = np.concatenate([base, probes])
    order = np.argsort(radii, kind="stable")
    return radii[order], order >= len(base)


def _scan(measure: Measure, rows: Sequence[tuple[float, str]],
          schedule: TruncationSchedule, policy: VerdictPolicy,
          probe_atoms: bool = True) -> list[PartialMeanSeries]:
    """The scans ``rows``, (center, side) pairs, one series per row.

    Side "both" gives the closed windows [c - M, c + M]; "plus" and "minus"
    give the one-sided windows [c, c + M] and [c - M, c], probed only at the
    atoms on their own side.  The radii are the schedule's, plus the
    midpoints of the gaps between atom crossings when ``probe_atoms`` is set
    and the measure is atomic; only then are the atom locations looked up,
    once, out to the widest row's reach.  A lookup refused for holding more
    than ``_PROBE_ATOM_CAP`` atoms leaves the schedule's radii, as a measure
    without atoms has, with no probe pass.

    Every row is answered by one ``window_stats`` call on a (rows x radii)
    array, each row padded to the widest by repeating its widest window.  A
    measure without atoms computes each window on its own; an atomic one
    anchors each row's cumulative sums inside that row's windows, which all
    hold its center, so the repeats move no anchor (README, "Accuracy of
    atomic windows").  Either way every row is bitwise the scan of that row
    alone.
    """
    base = schedule.radii()
    locations = None
    if probe_atoms and measure.is_atomic:
        reach = base[-1] + max(abs(center) for center, _ in rows) + 1.0
        try:
            locations = measure.atom_arrays(reach, max_atoms=_PROBE_ATOM_CAP)[0]
        except MeasureError:  # more than _PROBE_ATOM_CAP atoms: no probes, as without atoms
            pass
    if locations is None:
        grids = [(base, np.zeros(len(base), bool)) for _ in rows]
        radii = np.tile(base, (len(rows), 1))
    else:
        grids = []
        for center, side in rows:
            here = locations
            if side != "both":
                sign = 1.0 if side == "plus" else -1.0
                here = locations[sign * (locations - center) > 0]
            grids.append(_scan_radii(here, center, base, policy.max_probes))
        # one (rows x radii) array, each row padded by repeating its widest radius
        radii = np.empty((len(rows), max(len(r) for r, _ in grids)))
        for row, (r, _) in zip(radii, grids):
            row[:len(r)] = r
            row[len(r):] = r[-1]
    centers = np.array([center for center, _ in rows], dtype=float)[:, None]
    lo, hi = centers - radii, centers + radii
    for ends, side in ((lo, "plus"), (hi, "minus")):
        at = [i for i, (_, s) in enumerate(rows) if s == side]
        if at:
            ends[at] = centers[at]
    masses, values = measure.window_stats(lo, hi)
    return [PartialMeanSeries(center=float(center), radii=radii[i, :len(probes)],
                              values=values[i, :len(probes)], masses=masses[i, :len(probes)],
                              is_probe=probes, horizon=float(base[-1]))
            for i, ((center, _), (_, probes)) in enumerate(zip(rows, grids))]


def limit_scan(measure: Measure, center: float,
               schedule: TruncationSchedule = TruncationSchedule(),
               policy: VerdictPolicy = VerdictPolicy(),
               probe_atoms: bool = True) -> PartialMeanSeries:
    """Partial means over [c - M, c + M] for every M in the (augmented) schedule."""
    return _scan(measure, [(center, "both")], schedule, policy, probe_atoms)[0]


def _classify_rows(rows: Sequence[np.ndarray], policy: VerdictPolicy,
                   horizon: Optional[float] = None,
                   monotone: Optional[Sequence[Optional[str]]] = None) -> list[LimitVerdict]:
    """One verdict per series of ``rows`` (``monotone``: each row's known
    direction, or None), by the rules of ``VerdictPolicy``.

    The rules read a series' last three W-blocks (below 3W values the first
    block is shorter).  One layout holds every row's last block, then each
    row followed by a copy of its first two blocks, and one ``reduceat``
    pass each of np.minimum and np.maximum over it gives, per row, the
    extrema of the values before the blocks, of all three blocks in one
    pass and of each block.  The rules read these and the last block as
    Python floats.  Each reduction runs over one row's own values, so a
    verdict does not depend on the rows classified with it.
    """
    W, count = policy.window, len(rows)
    sizes = [len(values) for values in rows]
    if min(sizes) < 2 * W:
        raise ValueError(f"series too short to classify: {min(sizes)} < {2 * W}")
    pieces = [values[-W:] for values in rows]
    cuts, start = list(range(0, count * W, W)), count * W
    for values, n in zip(rows, sizes):
        L = min(n, 3 * W)
        pieces += [values, values[-L:-W]]
        # segments: the head, the tail (all three blocks in one pass), then
        # the copy's first and second block; an empty head reads one tail
        # value, and so does the first block of a 2W series, which is values[0]
        end = start + n
        cuts += [start, end - L, end, end + L - 2 * W]
        start = end + L - W
    layout, cuts = np.concatenate(pieces, dtype=float), np.array(cuts)
    mins = np.minimum.reduceat(layout, cuts).tolist()
    maxs = np.maximum.reduceat(layout, cuts).tolist()
    lasts = layout[:count * W].tolist()
    verdicts = []
    for i in range(count):
        j = count + 4 * i  # this row's head, tail and first two blocks
        lo3, hi3 = mins[j + 1], maxs[j + 1]
        # the extrema are finite exactly when every value is (NaN compares false)
        if -math.inf < mins[j] and maxs[j] < math.inf and -math.inf < lo3 and hi3 < math.inf:
            verdicts.append(_rules([mins[j + 2], mins[j + 3], mins[i]],
                                   [maxs[j + 2], maxs[j + 3], maxs[i]], lo3, hi3,
                                   lasts[i * W:(i + 1) * W], policy, horizon,
                                   monotone and monotone[i]))
        else:
            # A NaN or infinite value makes the spread and tolerance NaN, which
            # compares false against every threshold: no rule can be read.
            verdicts.append(LimitVerdict(UNDETERMINED, window=W, horizon=horizon))
    return verdicts


def _rules(mins: list[float], maxs: list[float], lo3: float, hi3: float, last: list[float],
           policy: VerdictPolicy, horizon: Optional[float],
           monotone: Optional[str]) -> LimitVerdict:
    """The verdict of one finite series from the minima and maxima of its
    last three W-blocks, the extrema over those blocks in one pass (not
    min(mins), which can return the other signed zero) and its last W
    values."""
    median = _middle(sorted(last))
    tol = policy.conv_scale * max(1.0, abs(median))
    lo, hi = mins[2], maxs[2]
    verdict = functools.partial(LimitVerdict, spread=hi - lo, conv_tol=tol,
                                window=policy.window, horizon=horizon)
    if hi - lo <= tol:
        return verdict(CONVERGED, value=median)
    if monotone is not None:
        # One-sided moment scans are monotone by construction, so a series
        # that has not settled by the horizon is diverging in its known
        # direction; the generic envelope rules below would misread slow
        # logarithmic growth as bounded oscillation.
        return verdict(DIVERGES_PLUS if monotone == "increasing" else DIVERGES_MINUS)

    final, thr = last[-1], policy.div_threshold

    def rising(x):  # every block-to-block step clears the tolerance
        return x[1] - x[0] > tol and x[2] - x[1] > tol

    # Each rule is stated upward.  A downward verdict is the upward one of the
    # negated series, whose block minima are the negated maxima, with its
    # estimate negated back.
    sides = ((1.0, mins, maxs, "liminf_est"),
             (-1.0, [-m for m in maxs], [-m for m in mins], "limsup_est"))
    for (sign, lows, _, est), kind in zip(sides, (DIVERGES_PLUS, DIVERGES_MINUS)):
        if rising(lows) and sign * final > thr:
            return verdict(kind, **{est: sign * lows[2]})

    spread_persists = all(b - a > tol for a, b in zip(mins, maxs))
    for (sign, _, highs, est), kind, low in zip(sides, (OSC_UNBOUNDED_ABOVE, OSC_UNBOUNDED_BELOW),
                                                (lo3, -hi3)):
        if spread_persists and rising(highs) and highs[2] > thr and abs(low) <= thr:
            return verdict(kind, **{est: sign * low})
    if spread_persists and max(abs(lo3), abs(hi3)) <= thr:
        return verdict(OSC_BOUNDED, liminf_est=lo3, limsup_est=hi3)
    return verdict(UNDETERMINED)


# ---------------------------------------------------------------------------
# Five-case taxonomy over a center grid
# ---------------------------------------------------------------------------

@dataclass
class TaxonomyReport:
    """Aggregate five-case verdict over a grid of centers.

    ``case`` is one of I, II, III_finite, III_plus_inf, III_minus_inf, IV, V,
    or Undetermined.  Case II carries the unique converging center; IV and V
    carry the estimated threshold center with the grid resolution as its
    uncertainty; III_finite carries the common value.  ``series`` holds the
    scan behind each center's verdict.
    """

    case: str
    per_center: dict[float, LimitVerdict]
    series: dict[float, PartialMeanSeries]
    c_star: Optional[float] = None
    c_threshold: Optional[float] = None
    threshold_uncertainty: Optional[float] = None
    common_value: Optional[float] = None
    horizon: Optional[float] = None
    diagnostics: list[str] = field(default_factory=list)


def classify_taxonomy(measure: Measure,
                      c_grid: Sequence[float] = DEFAULT_C_GRID,
                      schedule: TruncationSchedule = TruncationSchedule(),
                      policy: VerdictPolicy = VerdictPolicy()) -> TaxonomyReport:
    """Scan every center in the grid and map the verdicts to the five cases."""
    grid = sorted({float(c) for c in c_grid})  # a repeated center (-0.0 is 0.0) counts once
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"center grid needs finite centers, got {list(c_grid)}")
    if len(grid) < 5 or 0.0 not in grid or min(grid) >= 0 or max(grid) <= 0:
        raise ValueError("center grid needs >= 5 points including 0 and both signs")

    series = _scan(measure, [(c, "both") for c in grid], schedule, policy)
    verdicts = _classify_rows([s.values for s in series], policy, schedule.horizon)
    return _taxonomy(grid, series, verdicts, schedule.horizon)


def _taxonomy(grid: list[float], series: list[PartialMeanSeries],
              verdicts: list[LimitVerdict], horizon: float) -> TaxonomyReport:
    """The five-case report from the scan and verdict at each center of the
    sorted, checked ``grid``."""
    series, verdicts = dict(zip(grid, series)), dict(zip(grid, verdicts))
    diags: list[str] = []

    conv = [c for c in grid if verdicts[c].kind == CONVERGED]
    div_plus = [c for c in grid if verdicts[c].kind == DIVERGES_PLUS]
    div_minus = [c for c in grid if verdicts[c].kind == DIVERGES_MINUS]
    osc = [c for c in grid if verdicts[c].oscillates]
    undet = [c for c in grid if verdicts[c].kind == UNDETERMINED]

    def report(case, **kw):
        return TaxonomyReport(case=case, per_center=verdicts, series=series,
                              horizon=horizon, diagnostics=diags, **kw)

    if undet:
        diags.append(f"undetermined centers: {undet}")
        return report("Undetermined")

    if len(conv) == len(grid):
        vals = np.array([verdicts[c].value for c in grid])
        tol = 2.0 * max(verdicts[c].conv_tol for c in grid)
        if vals.max() - vals.min() <= tol:
            return report("III_finite", common_value=_median(vals))
        diags.append(
            f"finite limits at all centers disagree beyond {tol:g}: "
            f"spread {vals.max() - vals.min():g}")
        return report("Undetermined")

    if len(conv) == 1 and len(osc) == len(grid) - 1:
        return report("II", c_star=conv[0])

    if conv:
        # A finite limit at some center is incompatible with divergence or
        # additional non-limits elsewhere unless it is the single-center case.
        diags.append(f"finite limits at {conv} coexist with "
                     f"div+={div_plus}, div-={div_minus}, osc={osc}")
        return report("Undetermined")

    # III_plus_inf and IV read upward; III_minus_inf and V are the same rule
    # on the negated grid, where the centers diverging down diverge up.  Each
    # reading needs a center diverging its way and the other reading none.
    for sign, up, down, (all_up, tail), side in (
            (1.0, div_plus, div_minus, ("III_plus_inf", "IV"), "up centers are not an upper"),
            (-1.0, div_minus, div_plus, ("III_minus_inf", "V"), "down centers are not a lower")):
        if len(up) == len(grid):
            return report(all_up)
        if up and osc and not down:
            lo, hi = max(sign * c for c in osc), min(sign * c for c in up)
            if hi > lo:
                return report(tail, c_threshold=sign * 0.5 * (lo + hi),
                              threshold_uncertainty=0.5 * (hi - lo))
            diags.append(f"divergent-{side} tail of the grid")
            return report("Undetermined")

    if len(osc) == len(grid):
        return report("I")

    diags.append(f"verdict mix outside the taxonomy: div+={div_plus}, "
                 f"div-={div_minus}, osc={osc}")
    return report("Undetermined")


# ---------------------------------------------------------------------------
# Asymmetric windows and the tail curve
# ---------------------------------------------------------------------------

def asym_partial_mean(measure: Measure, a: float, b: float, M: float, K: float) -> float:
    """First moment over the closed window [a - M, b + K].

    Letting min(M, K) grow along different paths (K = M versus K = 2M, say)
    gives path-dependent limits exactly when x is not integrable.
    """
    if a > b:
        raise ValueError(f"requires a <= b, got a={a}, b={b}")
    if M < 0 or K < 0:
        raise ValueError(f"requires M, K >= 0, got M={M}, K={K}")
    return float(measure.window_stats(a - M, b + K)[1])


# The tail curve's n, 1 to 1e6: 10^(k/6) for k = 1..36 (k = 0 rounds to 1 too), rounded.
_TAIL_SCHEDULE = np.round(10.0 ** np.arange(0.0, 6.0 + 1e-9, 1.0 / 6.0))[1:]


@dataclass
class TailMassCurve:
    """The curve n -> n * P(|X| > n) and its settled-to-zero decision."""

    ns: np.ndarray
    values: np.ndarray
    tends_to_zero: bool
    tail_tol: float


def tail_mass_curve(measure: Measure, policy: VerdictPolicy = VerdictPolicy()) -> TailMassCurve:
    """n * P(|X| > n) on _TAIL_SCHEDULE; the weak mean requires it to vanish.

    The schedule stops at n = 1e6, short of the truncation
    schedule's horizon (about 2.7e10).  Both horizons give the same
    decision on every example measure.  They differ for
    integer_power_comb(p) with p in [2.3, 2.5]: n * P(X > n) ~ n^(2 - p)
    tends to 0, yet reads False at 1e6 and True at 2.7e10.  Moving the
    horizon changes those verdicts, so it stays at 1e6 until the verdict
    rules for slow tails are revisited.
    """
    ns = _TAIL_SCHEDULE.copy()
    vals = ns * measure.tail_probability(ns)
    w = min(policy.window, len(vals))
    tends = bool(np.max(vals[-w:]) <= policy.tail_tol)
    return TailMassCurve(ns=ns, values=vals, tends_to_zero=tends,
                         tail_tol=policy.tail_tol)


# ---------------------------------------------------------------------------
# The mean ladder: ordinary / weak / doubly weak
# ---------------------------------------------------------------------------

@dataclass
class MeanLadder:
    """Ordinary, weak, and doubly weak mean verdicts for one measure.

    ``ordinary_kind`` is one of finite, plus_inf, minus_inf, none,
    undetermined.  The weak mean exists when the centered partial means
    settle to a finite value and n * P(|X| > n) -> 0 (the curve ``tail``);
    the doubly weak mean is the common finite limit over all centers of
    ``taxonomy``, the report over DEFAULT_C_GRID (its case III_finite).
    The mathematically forced orderings (ordinary finite implies weak, weak
    implies doubly weak with equal values) are asserted at construction.
    """

    ordinary_kind: str
    ordinary_value: Optional[float]
    weak_value: Optional[float]
    doubly_weak_value: Optional[float]
    taxonomy: TaxonomyReport
    tail: TailMassCurve
    horizon: float
    tolerance: float

    @property
    def taxonomy_case(self) -> str:
        return self.taxonomy.case

    def __post_init__(self):
        if self.ordinary_kind == "finite":
            if self.weak_value is None or abs(self.weak_value - self.ordinary_value) > self.tolerance:
                raise ValueError("ladder violation: finite ordinary mean without "
                                 "matching weak mean")
        if self.weak_value is not None:
            if self.doubly_weak_value is None or abs(self.doubly_weak_value - self.weak_value) > self.tolerance:
                raise ValueError("ladder violation: weak mean without matching "
                                 "doubly weak mean")


# The ordinary mean by (plus side, minus side) verdict; other pairs: undetermined.
_ORDINARY_KINDS = {(CONVERGED, CONVERGED): "finite",
                   (DIVERGES_PLUS, CONVERGED): "plus_inf",
                   (CONVERGED, DIVERGES_MINUS): "minus_inf",
                   (DIVERGES_PLUS, DIVERGES_MINUS): "none"}


def mean_ladder(measure: Measure,
                schedule: TruncationSchedule = TruncationSchedule(),
                policy: VerdictPolicy = VerdictPolicy()) -> MeanLadder:
    """Decide the ordinary, weak, and doubly weak means at the schedule horizon."""
    # the two one-sided scans of the ordinary mean and the taxonomy's centers, together
    grid = list(DEFAULT_C_GRID)
    series = _scan(measure, [(0.0, "plus"), (0.0, "minus")] + [(c, "both") for c in grid],
                   schedule, policy)
    plus, minus, *verdicts = _classify_rows(
        [s.values for s in series], policy, schedule.horizon,
        ["increasing", "decreasing"] + [None] * len(grid))

    ordinary_kind = _ORDINARY_KINDS.get((plus.kind, minus.kind), "undetermined")
    ordinary_value = plus.value + minus.value if ordinary_kind == "finite" else None

    tail = tail_mass_curve(measure, policy=policy)
    taxonomy = _taxonomy(grid, series[2:], verdicts, schedule.horizon)
    center_verdict = taxonomy.per_center[0.0]
    weak_value = (center_verdict.value
                  if center_verdict.kind == CONVERGED and tail.tends_to_zero
                  else None)
    doubly = taxonomy.common_value if taxonomy.case == "III_finite" else None

    tol = 2.0 * max(center_verdict.conv_tol or 0.0, policy.conv_scale)
    return MeanLadder(ordinary_kind=ordinary_kind, ordinary_value=ordinary_value,
                      weak_value=weak_value, doubly_weak_value=doubly,
                      taxonomy=taxonomy, tail=tail,
                      horizon=schedule.horizon, tolerance=tol)


# ---------------------------------------------------------------------------
# Multiplier (mollifier) regularization
# ---------------------------------------------------------------------------

class WindowMultiplier:
    """Indicator of [c - 1/lam, c + 1/lam]; regularization equals truncation."""

    kind = "window"

    def __init__(self, c: float = 0.0):
        self.c = _number("multiplier c", c)

    def regularized_means(self, measure: Measure, lams: np.ndarray) -> np.ndarray:
        """All windows of the damping schedule in one window_stats call."""
        half = 1.0 / np.asarray(lams, dtype=float)
        return measure.window_stats(self.c - half, self.c + half)[1]

    def default_lambdas(self, schedule: TruncationSchedule) -> np.ndarray:
        return 1.0 / schedule.radii()

    def default_policy(self, policy: VerdictPolicy) -> VerdictPolicy:
        return policy


# The one reach of the exp-tilt rule: at lam, the atoms and the density nodes
# stop at |x| = X = _TILT_REACH / lam.  Past X, |weight(x) x| falls with |x|
# and is at most X e^-60 (1 + 60 pi |c|), so the mass beyond X moves a mean
# by at most that much times the mass.  e^-60 is about 9e-27: at the default
# smallest lam, 1e-4, the bound is below 6e-21 (1 + 190 |c|), far under the
# rule's 1e-10, and it grows with |c| as the tilt term of the mean does, so
# the relative remainder does not grow.
_TILT_REACH = 60.0


class ExpTiltMultiplier:
    """Exponential damping with a linear tilt on the negative side.

    weight(x) = exp(-lam * x) for x > 0 and exp(lam * x) * (1 + pi*c*lam*x)
    for x < 0 (1 at x = 0).  The family tends pointwise to 1 as lam -> 0+,
    yet on the standard Cauchy distribution the regularized means converge
    to the tilt parameter c: the limit is an artifact of the family chosen.
    The closed form shows why.  By symmetry only the tilt term survives, and

        E(weight_lam(X) X) = c (1 - lam f(lam)),
        f(lam) = int_0^inf e^(-lam y) / (1 + y^2) dy = Ci(lam) sin(lam) - si(lam) cos(lam)

    (Abramowitz & Stegun, section 5.2).  f(lam) -> pi/2, so lam f(lam) -> 0
    and the limit is c whatever c is.

    ``regularized_means`` takes the whole damping schedule in one pass, by
    one of two branches:

    * closed form: measures whose ``location_scale()`` names the Cauchy or
      Gaussian family (``_TILT_MEANS``);
    * one discrete rule: magnitudes x >= 0 carrying masses at -x and +x,
      summed for every lam as one (lam x nodes) product (``_kernel``), over
      the atoms of an atomic measure, enumerated once at the widest reach,
      or over the nodes of a density's pieces between its kinks: 0, where
      the weight has its kink, the law's origin and its support ends
      (``measures._split_rule``, which bisects a piece its nodes do not
      resolve, up to a QuadratureError).
    """

    kind = "exp_tilt"

    def __init__(self, c: float = 0.0):
        self.c = _number("multiplier c", c)

    def weight(self, x: np.ndarray, lam: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.exp(-lam * np.clip(x, 0.0, None))
        neg = np.exp(lam * np.clip(x, None, 0.0)) * (1.0 + math.pi * self.c * lam * np.clip(x, None, 0.0))
        return np.where(x >= 0.0, pos, neg)

    def regularized_means(self, measure: Measure, lams: np.ndarray) -> np.ndarray:
        """E(weight_lam(X) X) for every lam of the damping schedule."""
        lams = np.asarray(lams, dtype=float)
        if not np.all(lams > 0):
            raise ValueError(
                "damping rate must be positive; lam <= 0 leaves both tails "
                "of weight(x) * x unregularized")
        law = measure.location_scale()
        if law is not None and law[0] in _TILT_MEANS:
            family, loc, scale = law
            return _TILT_MEANS[family](loc, scale, self.c, lams)
        reach = _TILT_REACH / float(lams.min())
        kernel = functools.partial(self._kernel, lams)
        if measure.is_atomic:
            locs, weights = measure.atom_arrays(reach)
            return np.add(*kernel(np.abs(locs), np.where(locs < 0.0, weights, 0.0)[None],
                                  np.where(locs > 0.0, weights, 0.0)[None]))[:, 0]
        if measure.pdf is None:
            raise MeasureError("exp_tilt needs an atomic or density measure")
        return _split_rule(measure, reach, kernel)

    def _kernel(self, lams: np.ndarray, x: np.ndarray, neg: np.ndarray, pos: np.ndarray):
        """Per lam and row of masses: the sums of weight(y) y over the masses
        at y = -x (``neg``) and over those at y = x (``pos``)."""
        damp = np.exp(-lams[:, None] * x) * x
        tilted = damp * (1.0 - math.pi * self.c * lams[:, None] * x) if self.c else damp
        return -(tilted @ neg.T), damp @ pos.T

    def default_lambdas(self, schedule: TruncationSchedule) -> np.ndarray:
        return np.geomspace(1e-2, 1e-4, 25)

    def default_policy(self, policy: VerdictPolicy) -> VerdictPolicy:
        # The regularized means approach their limit with O(lam) corrections,
        # so the settling tolerance is scaled to the schedule depth rather
        # than the truncation default.
        return replace(policy, conv_scale=max(policy.conv_scale, 1e-3))


_EULER_GAMMA = 0.5772156649015329


def _psi(w: np.ndarray) -> np.ndarray:
    """w e^w E1(w) - 1 over a complex array, accurate in each component.

    The Cauchy closed form needs imaginary parts many orders of magnitude
    below the modulus when the location dwarfs the scale, which a product
    of e^w and scipy's complex E1 does not deliver (the means lost up to
    4e-8 relative near |lam loc| = 40).  Close to the negative real axis,
    and for small |w|, the power series
    E1(w) = -gamma - log w - sum_{n>=1} (-w)^n / (n n!) is used, whose terms
    there share one sign; elsewhere the continued fraction
    w e^w E1(w) = w / (w + 1 - 1/(w + 3 - 4/(w + 5 - 9/(w + 7 - ...))))
    converges within 60 levels.  Checked against mpmath on a grid of the
    plane: at worst about 1e-12 relative per component.
    """
    out = np.empty_like(w)
    near = (w.real > -60.0) & (w.real < 2.0) & (np.abs(w.imag) < 5.0)
    if near.any():
        v = w[near]
        term, total = np.ones_like(v), np.zeros_like(v)
        for n in range(1, 400):
            term = term * -v / n
            total += term / n
            if np.all(np.abs(term) <= 1e-17 * n * np.abs(total)):
                break
        out[near] = v * np.exp(v) * (-_EULER_GAMMA - np.log(v) - total) - 1.0
    if not near.all():
        v = w[~near]
        t = v + 121.0
        for n in range(59, 0, -1):
            t = v + (2 * n + 1) - (n + 1) ** 2 / t
        r = 1.0 / t
        out[~near] = -(1.0 - r) / (v + 1.0 - r)
    return out


def _cauchy_tilt_means(loc: float, scale: float, c: float, lams: np.ndarray) -> np.ndarray:
    """E(weight_lam(X) X) for X ~ Cauchy(loc, scale) and an array of lam.

    With z = loc + i scale the density is Im[1 / (x - z)] / pi, and
    int_0^inf e^(-lam x) / (x - z) dx = e^(-lam z) E1(-lam z), so the two
    half-lines give, with Psi(w) = w e^w E1(w) - 1 and k = pi c lam,

        mean = -(Im Psi(-lam z) + (1 + k loc) Im Psi(lam z)) / (pi lam)
               - c scale Re Psi(lam z).

    For cauchy(0, 1) this is c (1 - lam f(lam)).  Against mpmath: within
    1e-12 relative for |loc| up to 1e4 at lam <= 1e-2, and about 3e-11 at
    worst for |loc| up to 1e6 and lam up to 0.1.
    """
    z = complex(loc, scale)
    pos, neg = _psi(-lams * z), _psi(lams * z)
    k = math.pi * c * lams
    return (-(pos.imag + (1.0 + k * loc) * neg.imag) / (math.pi * lams)
            - c * scale * neg.real)


def _gaussian_tilt_means(mu: float, sigma: float, c: float, lams: np.ndarray) -> np.ndarray:
    """E(weight_lam(X) X) for X ~ N(mu, sigma^2) and an array of lam.

    Completing the square on each half-line: with m = mu0 - lam sigma^2,
    t = m / sigma and E = -lam mu0 + (lam sigma)^2 / 2, the moments
    int_0^inf e^(-lam x) x^j N(x; mu0, sigma^2) dx are
    P1 = m A + sigma B and P2 = (m^2 + sigma^2) A + m sigma B with
    A = e^E Phi(t), B = e^E phi(t) = phi(mu0 / sigma).  The mean is
    P1(mu) - P1(-mu) + pi c lam P2(-mu).  For t < 0, e^E can overflow
    against an underflowing Phi(t), so A is taken as
    erfcx(-t / sqrt 2) / 2 * e^(-mu0^2 / (2 sigma^2)) there.
    """
    from scipy.special import erfcx, ndtr

    def moments(mu0: float) -> tuple[np.ndarray, np.ndarray]:
        m = mu0 - lams * sigma ** 2
        t = m / sigma
        gauss = math.exp(-0.5 * (mu0 / sigma) ** 2)
        A = np.empty_like(t)
        low = t < 0
        A[low] = 0.5 * erfcx(-t[low] / math.sqrt(2.0)) * gauss
        A[~low] = (np.exp(-lams[~low] * mu0 + 0.5 * (lams[~low] * sigma) ** 2)
                   * ndtr(t[~low]))
        B = gauss / math.sqrt(2.0 * math.pi)
        return m * A + sigma * B, (m * m + sigma ** 2) * A + m * sigma * B

    p1, _ = moments(mu)
    q1, q2 = moments(-mu)
    return p1 - q1 + math.pi * c * lams * q2


# closed forms of E(weight_lam(X) X) by location-scale family
_TILT_MEANS = {"cauchy": _cauchy_tilt_means, "gaussian": _gaussian_tilt_means}


@dataclass
class MultiplierSeries:
    """Regularized means along a decreasing damping schedule, plus verdict."""

    family_kind: str
    c: float
    lambdas: np.ndarray
    values: np.ndarray
    verdict: LimitVerdict


def multiplier_mean(measure: Measure, family,
                    lam_schedule: Optional[Sequence[float]] = None,
                    schedule: TruncationSchedule = TruncationSchedule(),
                    policy: VerdictPolicy = VerdictPolicy()) -> MultiplierSeries:
    """E(weight_lam(X) * X) along lam -> 0+, classified like a truncation series."""
    lams = (family.default_lambdas(schedule) if lam_schedule is None else
            np.array([_number(f"lambdas[{i}]", lam) for i, lam in enumerate(lam_schedule)]))
    if len(lams) < 2 or np.any(np.diff(lams) >= 0) or lams[-1] <= 0:
        raise ValueError("lambda schedule must be positive and strictly decreasing")
    values = family.regularized_means(measure, lams)
    verdict = _classify_rows([values], family.default_policy(policy),
                             horizon=float(1.0 / lams[-1]))[0]
    return MultiplierSeries(family_kind=family.kind, c=family.c, lambdas=lams,
                            values=values, verdict=verdict)
