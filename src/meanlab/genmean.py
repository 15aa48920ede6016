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
tail curve n * P(|X| > n) behind the weak mean, the asymmetric-window partial
means whose path dependence separates integrable from non-integrable
measures, and two multiplier (mollifier) families that force integrability
before taking the damping to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .measures import Measure, MeasureError, window_first_moment

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
    "classify_series",
    "classify_taxonomy",
    "asym_partial_mean",
    "tail_mass_curve",
    "mean_ladder",
    "multiplier_mean",
    "default_tail_schedule",
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

    The non-dyadic defaults keep window boundaries off the dyadic and triadic
    atom grids of the built-in combs.
    """

    m0: float = 1.1
    ratio: float = 1.5
    count: int = 60

    def __post_init__(self):
        if not self.m0 > 0:
            raise ValueError(f"schedule needs m0 > 0, got {self.m0}")
        if not self.ratio > 1:
            raise ValueError(f"schedule needs ratio > 1, got {self.ratio}")
        if self.count < 1:
            raise ValueError(f"schedule needs count >= 1, got {self.count}")
        # Checked in log space: computing the horizon itself would overflow.
        growth = (self.count - 1) * math.log(self.ratio)
        if not (math.isfinite(self.m0) and growth < _LOG_MAX
                and math.log(self.m0) + growth < _LOG_MAX):
            raise ValueError(
                f"schedule horizon m0 * ratio^(count - 1) is not finite "
                f"(m0={self.m0}, ratio={self.ratio}, count={self.count})")

    def radii(self) -> np.ndarray:
        return self.m0 * self.ratio ** np.arange(self.count, dtype=float)

    @property
    def horizon(self) -> float:
        return self.m0 * self.ratio ** (self.count - 1)


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
    jitter: float = 1e-6
    max_probes: int = 400
    tail_tol: float = 1e-3

    def conv_tol(self, last: np.ndarray) -> float:
        return self.conv_scale * max(1.0, abs(float(np.median(last))))


@dataclass
class PartialMeanSeries:
    """Partial means s_k = int_{[c - M_k, c + M_k]} x dP along the schedule.

    ``is_probe`` marks radii inserted to straddle atom-crossing events; the
    entries at ``~is_probe`` are exactly the schedule's geometric grid.
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

    def base_values(self) -> np.ndarray:
        return self.values[~self.is_probe]


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
    def exists_finite(self) -> bool:
        return self.kind == CONVERGED

    @property
    def diverges(self) -> bool:
        return self.kind in (DIVERGES_PLUS, DIVERGES_MINUS)

    @property
    def oscillates(self) -> bool:
        return self.kind in (OSC_BOUNDED, OSC_UNBOUNDED_ABOVE, OSC_UNBOUNDED_BELOW)


# Atoms beyond this count get no probes; dense combs rely on closed forms.
_PROBE_ATOM_CAP = 50_000


def _atom_locations(measure: Measure, max_abs: float) -> np.ndarray:
    """Atom locations within max_abs; empty for continuous measures and for
    combs with more than _PROBE_ATOM_CAP atoms there."""
    if not measure.is_atomic:
        return np.empty(0)
    try:
        return measure.atom_locations(max_abs, max_atoms=_PROBE_ATOM_CAP)
    except MeasureError:
        return np.empty(0)


def _scan_radii(locations: np.ndarray, center: float, base: np.ndarray,
                policy: VerdictPolicy, probe: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The base radii plus probe radii, sorted and nudged off the atoms.

    Probes are the midpoints between consecutive atom-crossing radii
    |z - c| inside the base range (thinned evenly to ``policy.max_probes``).
    The partial mean at center c is a pure jump function of M for atomic
    measures, constant between crossings; sampling each gap exposes every
    value the series takes inside the horizon.  A radius whose window
    boundary c +- M lands exactly on an atom is nudged outward, by an
    absolute jitter widened to stay above float granularity at large M.
    Returns (radii, is_probe).
    """
    probes = np.empty(0)
    if probe:
        crossings = np.abs(locations - center)
        crossings = np.unique(crossings[(base[0] <= crossings) & (crossings <= base[-1])])
        probes = 0.5 * (crossings[:-1] + crossings[1:])
        if len(probes) > policy.max_probes:
            idx = np.linspace(0, len(probes) - 1, policy.max_probes).round().astype(int)
            probes = probes[np.unique(idx)]
    radii = np.concatenate([base, probes])
    is_probe = np.concatenate([np.zeros(len(base), bool), np.ones(len(probes), bool)])
    order = np.argsort(radii, kind="stable")
    radii, is_probe = radii[order], is_probe[order]
    eps = np.maximum(policy.jitter, 16 * np.spacing(radii))
    for _ in range(8):
        on_atom = np.isin(center - radii, locations) | np.isin(center + radii, locations)
        if not on_atom.any():
            break
        radii = np.where(on_atom, radii + eps, radii)
    return radii, is_probe


def limit_scan(measure: Measure, center: float,
               schedule: TruncationSchedule = TruncationSchedule(),
               policy: VerdictPolicy = VerdictPolicy(),
               probe_atoms: bool = True) -> PartialMeanSeries:
    """Partial means over [c - M, c + M] for every M in the (augmented) schedule."""
    base = schedule.radii()
    locations = _atom_locations(measure, base[-1] + abs(center) + 1.0)
    radii, is_probe = _scan_radii(locations, center, base, policy, probe_atoms)
    masses, values = measure.window_stats(center - radii, center + radii)
    return PartialMeanSeries(center=float(center), radii=radii, values=values,
                             masses=masses, is_probe=is_probe,
                             horizon=schedule.horizon)


def _classify_values(values: np.ndarray, policy: VerdictPolicy,
                     horizon: Optional[float] = None,
                     monotone: Optional[str] = None) -> LimitVerdict:
    W = policy.window
    if len(values) < 2 * W:
        raise ValueError(f"series too short to classify: {len(values)} < {2 * W}")
    last = values[-W:]
    tol = policy.conv_tol(last)
    spread = float(last.max() - last.min())
    if spread <= tol:
        return LimitVerdict(CONVERGED, value=float(np.median(last)), spread=spread,
                            conv_tol=tol, window=W, horizon=horizon)
    if monotone is not None:
        # One-sided moment scans are monotone by construction, so a series
        # that has not settled by the horizon is diverging in its known
        # direction; the generic envelope rules below would misread slow
        # logarithmic growth as bounded oscillation.
        kind = DIVERGES_PLUS if monotone == "increasing" else DIVERGES_MINUS
        return LimitVerdict(kind, spread=spread, conv_tol=tol, window=W,
                            horizon=horizon)

    blocks = [values[-3 * W:-2 * W], values[-2 * W:-W], last]
    if len(values) < 3 * W:
        blocks = [values[:-W][: max(1, len(values) - 2 * W)],
                  values[-2 * W:-W], last]
    mins = [float(b.min()) for b in blocks]
    maxs = [float(b.max()) for b in blocks]
    final = float(values[-1])
    tail3 = values[-3 * W:]

    def rising(x):  # every block-to-block step clears the tolerance
        return x[1] - x[0] > tol and x[2] - x[1] > tol

    neg_mins, neg_maxs = [-m for m in mins], [-m for m in maxs]
    if rising(mins) and final > policy.div_threshold:
        return LimitVerdict(DIVERGES_PLUS, liminf_est=mins[2], spread=spread,
                            conv_tol=tol, window=W, horizon=horizon)
    if rising(neg_maxs) and final < -policy.div_threshold:
        return LimitVerdict(DIVERGES_MINUS, limsup_est=maxs[2], spread=spread,
                            conv_tol=tol, window=W, horizon=horizon)

    spread_persists = all(b.max() - b.min() > tol for b in blocks)
    lo3, hi3 = float(tail3.min()), float(tail3.max())
    if (spread_persists and rising(maxs)
            and maxs[2] > policy.div_threshold and abs(lo3) <= policy.div_threshold):
        return LimitVerdict(OSC_UNBOUNDED_ABOVE, liminf_est=lo3, spread=spread,
                            conv_tol=tol, window=W, horizon=horizon)
    if (spread_persists and rising(neg_mins)
            and mins[2] < -policy.div_threshold and abs(hi3) <= policy.div_threshold):
        return LimitVerdict(OSC_UNBOUNDED_BELOW, limsup_est=hi3, spread=spread,
                            conv_tol=tol, window=W, horizon=horizon)
    if spread_persists and max(abs(lo3), abs(hi3)) <= policy.div_threshold:
        return LimitVerdict(OSC_BOUNDED, liminf_est=lo3, limsup_est=hi3,
                            spread=spread, conv_tol=tol, window=W, horizon=horizon)
    return LimitVerdict(UNDETERMINED, spread=spread, conv_tol=tol, window=W,
                        horizon=horizon)


def classify_series(series: PartialMeanSeries,
                    policy: VerdictPolicy = VerdictPolicy()) -> LimitVerdict:
    """Classify a partial-mean series into one limit verdict."""
    return _classify_values(series.values, policy, horizon=series.horizon)


# ---------------------------------------------------------------------------
# Five-case taxonomy over a center grid
# ---------------------------------------------------------------------------

@dataclass
class TaxonomyReport:
    """Aggregate five-case verdict over a grid of centers.

    ``case`` is one of I, II, III_finite, III_plus_inf, III_minus_inf, IV, V,
    or Undetermined.  Case II carries the unique converging center; IV and V
    carry the estimated threshold center with the grid resolution as its
    uncertainty; III_finite carries the common value.
    """

    case: str
    per_center: dict[float, LimitVerdict]
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
    grid = sorted(float(c) for c in c_grid)
    if len(grid) < 5 or 0.0 not in grid or min(grid) >= 0 or max(grid) <= 0:
        raise ValueError("center grid needs >= 5 points including 0 and both signs")

    verdicts = {c: classify_series(limit_scan(measure, c, schedule, policy), policy)
                for c in grid}
    horizon = schedule.horizon
    diags: list[str] = []

    conv = [c for c in grid if verdicts[c].kind == CONVERGED]
    div_plus = [c for c in grid if verdicts[c].kind == DIVERGES_PLUS]
    div_minus = [c for c in grid if verdicts[c].kind == DIVERGES_MINUS]
    osc = [c for c in grid if verdicts[c].oscillates]
    undet = [c for c in grid if verdicts[c].kind == UNDETERMINED]

    def report(case, **kw):
        return TaxonomyReport(case=case, per_center=verdicts, horizon=horizon,
                              diagnostics=diags, **kw)

    if undet:
        diags.append(f"undetermined centers: {undet}")
        return report("Undetermined")

    if len(conv) == len(grid):
        vals = np.array([verdicts[c].value for c in grid])
        tol = 2.0 * max(verdicts[c].conv_tol for c in grid)
        if vals.max() - vals.min() <= tol:
            return report("III_finite", common_value=float(np.median(vals)))
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

    if len(div_plus) == len(grid):
        return report("III_plus_inf")
    if len(div_minus) == len(grid):
        return report("III_minus_inf")

    if div_plus and osc and not div_minus:
        if min(div_plus) > max(osc):
            lo, hi = max(osc), min(div_plus)
            return report("IV", c_threshold=0.5 * (lo + hi),
                          threshold_uncertainty=0.5 * (hi - lo))
        diags.append("divergent-up centers are not an upper tail of the grid")
        return report("Undetermined")
    if div_minus and osc and not div_plus:
        if max(div_minus) < min(osc):
            lo, hi = max(div_minus), min(osc)
            return report("V", c_threshold=0.5 * (lo + hi),
                          threshold_uncertainty=0.5 * (hi - lo))
        diags.append("divergent-down centers are not a lower tail of the grid")
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
    return window_first_moment(measure, a - M, b + K)


def default_tail_schedule(n_max: float = 1e6) -> np.ndarray:
    """Geometric integer schedule 1, ..., n_max hitting every power of 10."""
    pts = 10.0 ** np.arange(0.0, math.log10(n_max) + 1e-9, 1.0 / 6.0)
    return np.unique(np.round(pts)).astype(float)


@dataclass
class TailMassCurve:
    """The curve n -> n * P(|X| > n) and its settled-to-zero decision."""

    ns: np.ndarray
    values: np.ndarray
    tends_to_zero: bool
    tail_tol: float


def tail_mass_curve(measure: Measure, n_schedule: Optional[Sequence[float]] = None,
                    policy: VerdictPolicy = VerdictPolicy()) -> TailMassCurve:
    """Evaluate n * P(|X| > n); the weak mean requires this to vanish."""
    ns = np.asarray(default_tail_schedule() if n_schedule is None else n_schedule,
                    dtype=float)
    if len(ns) < 2 or np.any(np.diff(ns) <= 0):
        raise ValueError("tail schedule must be increasing with >= 2 points")
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
    settle to a finite value and n * P(|X| > n) -> 0; the doubly weak mean
    is the common finite limit over all centers (taxonomy case III_finite).
    The mathematically forced orderings (ordinary finite implies weak, weak
    implies doubly weak with equal values) are asserted at construction.
    """

    ordinary_kind: str
    ordinary_value: Optional[float]
    weak_value: Optional[float]
    doubly_weak_value: Optional[float]
    taxonomy_case: str
    tail_tends_to_zero: bool
    horizon: float
    tolerance: float

    def __post_init__(self):
        if self.ordinary_kind == "finite":
            if self.weak_value is None or abs(self.weak_value - self.ordinary_value) > self.tolerance:
                raise ValueError("ladder violation: finite ordinary mean without "
                                 "matching weak mean")
        if self.weak_value is not None:
            if self.doubly_weak_value is None or abs(self.doubly_weak_value - self.weak_value) > self.tolerance:
                raise ValueError("ladder violation: weak mean without matching "
                                 "doubly weak mean")


def _one_sided_series(measure: Measure, side: str, schedule: TruncationSchedule,
                      policy: VerdictPolicy) -> np.ndarray:
    """Moments over [0, M] (side "plus") or [-M, 0] (side "minus")."""
    base = schedule.radii()
    sign = 1.0 if side == "plus" else -1.0
    locations = _atom_locations(measure, base[-1] + 1.0)
    radii, _ = _scan_radii(locations[sign * locations > 0], 0.0, base, policy)
    zero = np.zeros_like(radii)
    lo, hi = (zero, radii) if side == "plus" else (-radii, zero)
    return measure.window_stats(lo, hi)[1]


def mean_ladder(measure: Measure,
                schedule: TruncationSchedule = TruncationSchedule(),
                policy: VerdictPolicy = VerdictPolicy()) -> MeanLadder:
    """Decide the ordinary, weak, and doubly weak means at the schedule horizon."""
    plus = _classify_values(_one_sided_series(measure, "plus", schedule, policy),
                            policy, schedule.horizon, monotone="increasing")
    minus = _classify_values(_one_sided_series(measure, "minus", schedule, policy),
                             policy, schedule.horizon, monotone="decreasing")

    if plus.kind == CONVERGED and minus.kind == CONVERGED:
        ordinary_kind, ordinary_value = "finite", plus.value + minus.value
    elif plus.kind == DIVERGES_PLUS and minus.kind == CONVERGED:
        ordinary_kind, ordinary_value = "plus_inf", None
    elif plus.kind == CONVERGED and minus.kind == DIVERGES_MINUS:
        ordinary_kind, ordinary_value = "minus_inf", None
    elif plus.kind == DIVERGES_PLUS and minus.kind == DIVERGES_MINUS:
        ordinary_kind, ordinary_value = "none", None
    else:
        ordinary_kind, ordinary_value = "undetermined", None

    center_verdict = classify_series(limit_scan(measure, 0.0, schedule, policy), policy)
    tail = tail_mass_curve(measure, policy=policy)
    weak_value = (center_verdict.value
                  if center_verdict.kind == CONVERGED and tail.tends_to_zero
                  else None)

    taxonomy = classify_taxonomy(measure, DEFAULT_C_GRID, schedule, policy)
    doubly = taxonomy.common_value if taxonomy.case == "III_finite" else None

    tol = 2.0 * max(center_verdict.conv_tol or 0.0, policy.conv_scale)
    return MeanLadder(ordinary_kind=ordinary_kind, ordinary_value=ordinary_value,
                      weak_value=weak_value, doubly_weak_value=doubly,
                      taxonomy_case=taxonomy.case,
                      tail_tends_to_zero=tail.tends_to_zero,
                      horizon=schedule.horizon, tolerance=tol)


# ---------------------------------------------------------------------------
# Multiplier (mollifier) regularization
# ---------------------------------------------------------------------------

class WindowMultiplier:
    """Indicator of [c - 1/lam, c + 1/lam]; regularization equals truncation."""

    kind = "window"

    def __init__(self, c: float = 0.0):
        self.c = float(c)

    def weight(self, x: np.ndarray, lam: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        half = 1.0 / lam
        return ((x >= self.c - half) & (x <= self.c + half)).astype(float)

    def regularized_mean(self, measure: Measure, lam: float,
                         quad_tol: float = 1e-10) -> float:
        if not lam > 0:
            raise ValueError(f"damping rate must be positive, got {lam}")
        return float(self.regularized_means(measure, np.array([lam]))[0])

    def regularized_means(self, measure: Measure, lams: np.ndarray) -> np.ndarray:
        """All windows of the damping schedule in one window_stats call."""
        half = 1.0 / np.asarray(lams, dtype=float)
        return measure.window_stats(self.c - half, self.c + half)[1]

    def default_lambdas(self, schedule: TruncationSchedule) -> np.ndarray:
        return 1.0 / schedule.radii()

    def default_policy(self, policy: VerdictPolicy) -> VerdictPolicy:
        return policy


class ExpTiltMultiplier:
    """Exponential damping with a linear tilt on the negative side.

    weight(x) = exp(-lam * x) for x > 0 and exp(lam * x) * (1 + pi*c*lam*x)
    for x < 0 (1 at x = 0).  The family tends pointwise to 1 as lam -> 0+,
    yet on the standard Cauchy distribution the regularized means converge
    to the tilt parameter c: the limit is an artifact of the family chosen.
    """

    kind = "exp_tilt"

    # integrate |x| <= cutoff_factor / lam; the remainder is certified below
    cutoff_factor = 40.0

    def __init__(self, c: float = 0.0):
        self.c = float(c)

    def weight(self, x: np.ndarray, lam: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.exp(-lam * np.clip(x, 0.0, None))
        neg = np.exp(lam * np.clip(x, None, 0.0)) * (1.0 + math.pi * self.c * lam * np.clip(x, None, 0.0))
        return np.where(x >= 0.0, pos, neg)

    def _remainder_bound(self, lam: float, X: float) -> float:
        # |weight(x) * x| <= X e^{-lam X} (1 + pi |c| lam X) for |x| >= X
        # (the bound is decreasing there once X >= 2 / lam)
        return X * math.exp(-lam * X) * (1.0 + math.pi * abs(self.c) * lam * X)

    def regularized_mean(self, measure: Measure, lam: float,
                         quad_tol: float = 1e-10) -> float:
        if not lam > 0:
            raise ValueError(
                "damping rate must be positive; lam <= 0 leaves both tails "
                "of weight(x) * x unregularized")
        X = self.cutoff_factor / lam
        while self._remainder_bound(lam, X) >= quad_tol / 2 and X < 1e306:
            X *= 1.5
        if measure.is_atomic:
            atoms = measure.atoms_within(X)
            locs = np.array([a.location for a in atoms])
            ws = np.array([a.weight for a in atoms])
            return float(np.sum(self.weight(locs, lam) * locs * ws))
        from scipy import integrate as _integrate
        pdf = measure.pdf if hasattr(measure, "pdf") else None
        if pdf is None:
            raise MeasureError("exp_tilt needs an atomic or density measure")

        def integrand(x: float) -> float:
            return float(self.weight(x, lam)) * x * pdf(x)

        lo = max(-X, getattr(measure, "support", (-math.inf, math.inf))[0])
        hi = min(X, getattr(measure, "support", (-math.inf, math.inf))[1])
        total = 0.0
        for (a, b) in ((lo, min(0.0, hi)), (max(0.0, lo), hi)):
            if a < b:
                val, err = _integrate.quad(integrand, a, b, epsabs=quad_tol,
                                           epsrel=1e-12, limit=10_000)
                total += val
        return total

    def regularized_means(self, measure: Measure, lams: np.ndarray) -> np.ndarray:
        return np.array([self.regularized_mean(measure, lam) for lam in lams])

    def default_lambdas(self, schedule: TruncationSchedule) -> np.ndarray:
        return np.geomspace(1e-2, 1e-4, 25)

    def default_policy(self, policy: VerdictPolicy) -> VerdictPolicy:
        # The regularized means approach their limit with O(lam) corrections,
        # so the settling tolerance is scaled to the schedule depth rather
        # than the truncation default.
        return replace(policy, conv_scale=max(policy.conv_scale, 1e-3))


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
    lams = (np.asarray(lam_schedule, dtype=float) if lam_schedule is not None
            else family.default_lambdas(schedule))
    if len(lams) < 2 or np.any(np.diff(lams) >= 0) or lams[-1] <= 0:
        raise ValueError("lambda schedule must be positive and strictly decreasing")
    values = family.regularized_means(measure, lams)
    verdict = _classify_values(values, family.default_policy(policy),
                               horizon=float(1.0 / lams[-1]))
    return MultiplierSeries(family_kind=family.kind, c=family.c, lambdas=lams,
                            values=values, verdict=verdict)
