"""Probability measures on the real line and their one window primitive.

Every measure answers a whole batch of windows in one call::

    masses, moments = measure.window_stats(lo, hi)

``lo`` and ``hi`` are arrays (or scalars) of window endpoints, and the two
results hold P([lo, hi]) and int_{[lo, hi]} x dP for each window.  Windows
are always closed, as the paper's truncations [c - M, c + M] are; a
half-open window is a closed one minus the point window ``[x, x]``, which
differs only where an atom sits exactly on x.  Scalar endpoints give 0-d
arrays.

Representations:

* ``AtomicComb``: a lazily enumerated sequence of weighted point masses with
  a certified bound on the mass beyond any enumeration prefix, each block a
  pair of (locations, weights) sequences.  Windows are sums over the sorted
  atom locations, with ``searchsorted`` placing each endpoint on its atoms.
* ``IntegerPowerComb``: atoms dense in the integers, never enumerated.  Its
  windows are Hurwitz zeta closed forms, and it declares its atom count
  within any radius, so no caller has to enumerate atoms to learn that there
  are too many.
* ``DensityMeasure``: an absolutely continuous measure from a user density,
  integrated by adaptive quadrature one window at a time.
* ``_ClosedForm``: the standard member Z of a closed-form family (gaussian,
  cauchy, power_tail), stated only as a primitive of its pdf and of
  z * pdf(z), its mass outside a window, and optionally its quantile.
  power_tail is Z itself; gaussian and cauchy are ``Affine`` images of theirs.
* ``EmpiricalMeasure``: equal-weight point masses on a finite sample.
* ``Affine``: the law of s * X + a for any of the above.  Windows, tail
  complements, pdf offsets and draws map through it (a negative s swaps the
  endpoints), so wrapped measures keep the wrapped one's accuracy; it alone
  rules on a window end past float range in the inner law's frame.

Each class also defines its own draws (``sampler``); one table builds every
family.

Accuracy of atomic windows.  A window sum over sorted atoms is a difference
of cumulative sums, and one global prefix sum would cancel every atom left
of the window: comb_ex4 is enumerated to about 3^53, where single atom
moments reach about 1e15, so a global prefix loses about 0.25 absolute.  The
cumulative sums are therefore anchored at a point inside the windows (the
middle of their common part when they share one, as every scan's windows
do) and grow outward from it in both directions.  A window that contains
the anchor then adds only its own atoms, so its rounding error is relative
to the atoms inside it; integer contributions such as comb_ex1's +-1 stay
exact.  A 2-d request is a stack of rows, and each row is anchored inside
its own windows, with one pair of cumulative sums per distinct anchor: the
scans of several centers share one call, and each row is bitwise the same
request made alone.  Any other shape is one row.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Affine",
    "Atom",
    "AtomicComb",
    "DensityMeasure",
    "EmpiricalMeasure",
    "IntegerPowerComb",
    "Measure",
    "MeasureError",
    "QuadratureError",
    "MASS_TOL",
    "make_measure",
    "measure_from_document",
    "finite_comb",
    "gaussian",
    "cauchy",
    "power_tail",
    "comb_ex1",
    "comb_ex2",
    "comb_ex4",
    "comb_ex5",
    "integer_power_comb",
]

MASS_TOL = 1e-9

# Hard cap on atom enumeration; combs needing more must supply closed forms.
_MAX_ATOMS = 200_000

# Comb samplers drop the blocks past the first whose tail bound is below this.
_SAMPLING_CUTOFF = 1e-12

# Adaptive quadrature: absolute tolerance and subdivision limit.
_QUAD_ABS_TOL = 1e-10
_QUAD_LIMIT = 10_000


class MeasureError(ValueError):
    """Invalid measure construction or an unsupported window request."""


class QuadratureError(MeasureError):
    """Quadrature failed to reach tolerance; carries the partial estimate."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def _number(name: str, value, *, gt: Optional[float] = None,
            ge: Optional[float] = None, integer: bool = False,
            error: type = ValueError):
    """``value`` as a float (an int when ``integer``), or ``error`` naming the
    parameter.  Refuses strings, booleans, NaN, the infinities and ints beyond
    float range, and values not ``> gt`` or not ``>= ge``."""
    ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
          and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max  # false for NaN and huge ints
          and (gt is None or value > gt) and (ge is None or value >= ge))
    if not ok:
        bounds = [f"{op} {b:g}" for op, b in ((">", gt), (">=", ge)) if b is not None]
        kind = "an integer" if integer else "a finite number"
        raise error(f"{name} must be {' and '.join([*bounds, kind])}, got {value!r}")
    return int(value) if integer else float(value)


def _checked(locations: Sequence[float], weights: Sequence[float]):
    """(locations, weights), refused unless every location is finite and every weight > 0."""
    for x, w in zip(locations, weights, strict=True):
        if not math.isfinite(x):
            raise MeasureError(f"atom location must be finite, got {x}")
        if not (w > 0.0):
            raise MeasureError(f"atom weight must be positive, got {w}")
    return locations, weights


@dataclass(frozen=True)
class Atom:
    """A point mass: ``weight`` at ``location``."""

    location: float
    weight: float

    def __post_init__(self):
        _checked((self.location,), (self.weight,))


def _checked_quad(f: Callable[[float], float], a: float, b: float,
                  what: str) -> float:
    """``integrate.quad`` of f over [a, b] that refuses an unconverged result.

    Raises QuadratureError when quad reports a problem (it would otherwise
    only warn) or when its error estimate exceeds
    max(100 * _QUAD_ABS_TOL, 1e-8 * |value|).
    """
    from scipy import integrate  # looked up per call, so a wrapped quad is seen
    out = integrate.quad(f, a, b, epsabs=_QUAD_ABS_TOL, epsrel=1e-12,
                         limit=_QUAD_LIMIT, full_output=True)
    value, abserr = out[:2]
    if len(out) > 3 or abserr > max(100 * _QUAD_ABS_TOL, 1e-8 * abs(value)):
        raise QuadratureError(
            f"{what}: quadrature on [{a:g}, {b:g}] did not converge "
            f"(estimate {value:.6g}, error estimate {abserr:.3g})",
            estimate=value, error_estimate=abserr)
    return value


_MASS_GAP = 1e-5
_MAX_SPLITS = 60
_MAX_FAILED_PIECES = 1_024  # more failing pieces in one round are refused, not bisected

# The node rules of ``_split_rule``.  An outer piece, from a kink k out to the
# reach, takes the trapezoid rule in u = log(|x - k| / w) at u_j = _LOG_LOW + j h,
# h = _LOG_STEP, with w the law's width (``Measure._width``) held between e^-700
# and e^20 times the piece's length, so that each node is finite and each piece
# keeps 401 nodes or more.  On an integrand analytic in the strip |Im u| < d its
# error is about exp(-2 pi d / h) (Trefethen & Weideman, "The exponentially
# convergent trapezoidal rule", SIAM Review 56, 2014).  The poles of
# power_tail(a, b)'s pdf sit at Im u = +-pi / max(a, b), so its mass is resolved
# to about exp(-2 pi^2 / (h max(a, b))), below 1e-85 at h = 0.05; the exp-tilt
# damping e^(-lam e^u) narrows the strip of the means to d < pi / 2, which still
# leaves about exp(-pi^2 / h).  A bump of width w at distance x0 from k leaves
# d of order w / x0: N(5, 1) passes the checks from k = 0, and N(10, 1) fails
# them, so that piece is bisected.  Below u = -40 an integrand x^k pdf(x),
# k >= 0, carries at most e^-40 w times the largest pdf value, about e^-40 of
# the mass of a law of width w, whatever w is.  A finite piece takes the
# tanh-sinh rule x = tanh(pi/2 sinh t) on (-1, 1) at t = j h, |j| <= _SINH_NODES,
# whose nodes crowd double-exponentially at both ends (Takahasi & Mori 1974);
# past |t| = 5.3 they would lie within e^-314 of them.
_LOG_STEP = 0.05
_LOG_LOW = -40.0
_SINH_NODES = 106


@functools.lru_cache(maxsize=32)
def _log_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets e^(u_j), j = 0..2n, and dx weights at steps h and 2h (shared: read only)."""
    x = np.exp(_LOG_LOW + _LOG_STEP * np.arange(2 * n + 1))
    w = _LOG_STEP * x
    w[[0, -1]] *= 0.5
    return x, np.stack([w, 2.0 * w * (np.arange(w.size) % 2 == 0)])


@functools.cache
def _sinh_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which tanh-sinh nodes lie left of 0, their distance 1 - tanh|s| from the end they
    crowd toward (s = pi/2 sinh t), and dx weights at steps h and 2h (shared: read only)."""
    t = _LOG_STEP * np.arange(-_SINH_NODES, _SINH_NODES + 1)
    s = 0.5 * math.pi * np.sinh(t)
    w = _LOG_STEP * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    even = np.arange(t.size) % 2 == _SINH_NODES % 2
    return t < 0.0, 2.0 / (np.exp(2.0 * np.abs(s)) + 1.0), np.stack([w, 2.0 * w * even])


def _piece_nodes(piece: tuple, width: float) -> tuple:
    """Nodes of a piece ``(k, end, outer, depth)`` as anchors and offsets, their
    dx weights at steps h and 2h, and its window.  An outer piece takes k +- w
    e^(u_j) up to |end - k|, w the law's width clipped to e^-700..e^20 times
    |end - k|; a finite one tanh-sinh nodes placed from the nearer end."""
    k, end, outer, _ = piece
    if outer:
        length = abs(end - k)
        unit = min(max(width, math.exp(-700.0) * length), math.exp(20.0) * length)
        x, weights = _log_nodes(math.ceil((math.log(length / unit) - _LOG_LOW) / (2.0 * _LOG_STEP)))
        offset = unit * x if end > k else -unit * x
        return k, offset, unit * weights, tuple(sorted((k, k + offset[-1])))
    left, gap, weights = _sinh_nodes()
    half = 0.5 * (end - k)
    return (np.where(left, k, end), np.where(left, half * gap, -half * gap),
            abs(half) * weights, (min(k, end), max(k, end)))


def _bisect(piece: tuple) -> tuple[tuple, tuple]:
    """A piece's halves, one level deeper: a finite piece splits at its
    midpoint, an outer one at half its reach into a finite and an outer one."""
    k, end, outer, depth = piece
    mid = 0.5 * k + 0.5 * end
    return (k, mid, False, depth + 1), (mid, end, outer, depth + 1)


def _split_rule(measure: Measure, reach: float, kernel: Callable) -> np.ndarray:
    """int g pdf over [-reach, reach] for each row g of ``kernel(y)``, an
    array (functions x nodes) over signed nodes y.

    The line is split at the kinks 0, ``measure._origin`` and the support ends
    (one within 2 reach, past the last trapezoid node, ends the range instead
    of +-reach).  Each node is a piece end plus an offset: the kernel reads
    their sum, and the law its pdf at the node's offset from the law's origin,
    in its own frame (``Measure._pdf_at``), where a law narrow against its
    distance from 0 keeps the digits that the sum rounds away.  The outer
    nodes are placed in units of the law's width.  A piece's integrals at
    steps h and 2h are one product of its kernel with its node masses.  It
    is kept when its nodes' mass matches its window's to _MASS_GAP and those
    integrals agree to 1e-10 plus 1e-12 relative in every row; else it is
    bisected, for up to _MAX_SPLITS levels, _MAX_FAILED_PIECES failing pieces
    at once and down to 1e-9 of its distance from the law's origin, past
    which QuadratureError names it."""
    lo, hi = measure.support
    a, b = (lo if lo > -2.0 * reach else -reach), (hi if hi < 2.0 * reach else reach)
    if not a < b:  # the support lies past the reach: no nodes, zero integrals
        return kernel(np.zeros(0)) @ np.zeros(0)
    ends = sorted({a, b, *(k for k in (0.0, measure._origin, lo, hi) if a < k < b)})
    # a piece out to +-reach is outer, anchored at its kink
    pieces = [(q, p, True, 0) if p == -reach else (p, q, q == reach, 0)
              for p, q in zip(ends[:-1], ends[1:])]
    total, origin, width = 0.0, measure._origin, measure._width
    while pieces:
        nodes = [_piece_nodes(p, width) for p in pieces]
        # an offset past float range in the law's frame reads +-inf, where its pdf
        # is 0; a density past float range reads inf, and is refused
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [(anchor + offset, w * measure._pdf_at((anchor - origin) + offset), span)
                     for anchor, offset, w, span in nodes]
        seen = np.array([masses[0].sum() for _, masses, _ in parts])
        if np.isinf(seen).any():
            raise MeasureError(f"{measure.family}: density past float range")
        window = measure.window_stats(*zip(*(part[2] for part in parts)))[0]
        # steps h and 2h, each (functions x pieces)
        means, coarse = np.stack([kernel(y) @ masses.T for y, masses, _ in parts]).T
        gap = np.abs(means - coarse)
        kept = ((np.abs(seen - window) <= _MASS_GAP)
                & np.all(gap <= _QUAD_ABS_TOL + 1e-12 * np.abs(means), axis=0))
        total = total + means[:, kept].sum(axis=1)
        failed = np.flatnonzero(~kept).tolist()
        for p in failed:
            k, end, _, depth = pieces[p]
            if (depth == _MAX_SPLITS or len(failed) > _MAX_FAILED_PIECES
                    or abs(end - k) < 1e-9 * max(abs(k - origin), abs(end - origin))):
                raise QuadratureError(
                    f"{measure.family}: nodes on [{min(k, end):.17g}, {max(k, end):.17g}] see "
                    f"mass {seen[p]:.6g} of {window[p]:.6g}, steps h and 2h {gap[:, p].max():.3g} "
                    f"apart, after {depth} splits", seen[p], gap[:, p].max())
        pieces = [half for p in failed for half in _bisect(pieces[p])]
    return total


class Measure:
    """Common interface for all measure representations.

    Subclasses implement ``_window_stats`` on validated (rows x windows)
    endpoint arrays, returning one entry per window in row order; the public
    ``window_stats`` broadcasts and checks the endpoints.
    Densities set ``pdf`` and ``support``.
    """

    family = "?"
    is_atomic = False
    pdf: Optional[Callable[[float], float]] = None
    support = (-math.inf, math.inf)
    _origin = 0.0  # where the law's standard member has its kinks, if it has any
    _width = 1.0  # the scale its standard member is stretched by

    def _pdf_at(self, offset: np.ndarray) -> np.ndarray:
        """``pdf`` at ``_origin`` + offset over an array of offsets.  A law with
        a frame of its own reads the offsets there: one below the float spacing
        at the origin still counts, and all map alike through nested frames,
        where points mapped one by one round apart."""
        return np.fromiter(map(self.pdf, (self._origin + offset).tolist()), float, offset.size)

    def window_stats(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(masses, moments) over the closed windows [lo, hi], elementwise
        over the broadcast endpoint arrays.  A 2-d request is a stack of
        rows, each anchored apart on an atomic measure (see the module
        docstring); any other shape is one row."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        ordered = lo <= hi
        if not ordered.all():
            i = np.flatnonzero(~ordered.ravel())[0]
            raise MeasureError(
                f"window requires lo <= hi, got [{lo.flat[i]}, {hi.flat[i]}]")
        if lo.size == 0:
            return np.zeros(lo.shape), np.zeros(lo.shape)
        rows = (len(lo), -1) if lo.ndim == 2 else (1, -1)
        masses, moments = self._window_stats(lo.reshape(rows), hi.reshape(rows))
        return masses.reshape(lo.shape), moments.reshape(lo.shape)

    def _window_stats(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def tail_probability(self, t):
        """P(|X| > t), the mass outside [-t, t], elementwise over an array ``t`` (a float
        for a scalar).  Every law refuses a NaN t, reads 1 at t < 0 and 0 at t = inf
        unasked, and is clipped to [0, 1]; ``_outside(-t, t)`` gets the rest."""
        flat = np.asarray(t, dtype=float).ravel()
        if np.isnan(flat).any():
            raise MeasureError("tail probability requires a number t, got nan")
        out = (flat < 0).astype(float)
        ask = (flat >= 0) & (flat < math.inf)
        if ask.any():
            out[ask] = np.clip(self._outside(-flat[ask], flat[ask]), 0.0, 1.0)
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def _outside(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """P(X < lo) + P(X > hi) over flat arrays lo <= hi, either end maybe infinite."""
        return 1.0 - self._window_stats(lo[None], hi[None])[0].reshape(lo.shape)

    def atoms_within(self, max_abs: float) -> list[Atom]:
        """Atoms with |location| <= max_abs, sorted by location, for every
        measure (built from ``atom_arrays``); empty for continuous measures."""
        locs, weights = self.atom_arrays(max_abs)
        return [Atom(x, w) for x, w in zip(locs.tolist(), weights.tolist())]

    def atom_arrays(self, max_abs: float,
                    max_atoms: int = _MAX_ATOMS) -> tuple[np.ndarray, np.ndarray]:
        """(locations, weights) of the atoms with |location| <= max_abs, sorted
        by location.  A comb refuses (MeasureError) more than ``max_atoms`` of
        them, whatever it enumerated before; an empirical measure lists all."""
        return np.empty(0), np.empty(0)

    def sampler(self) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
        """(draw, truncation_bias): ``draw`` maps an array of uniforms in
        (0, 1) to draws from this measure, and may overwrite the uniforms it
        is given (a closed-form law returns them, transformed in place);
        ``truncation_bias`` bounds the mass the draws leave out (combs draw
        from their leading atoms, renormalized)."""
        raise MeasureError(f"no sampler for measure family {self.family!r}")

    # Affine combinators (precomposition with the inverse map).

    def shift(self, a: float) -> "Measure":
        return Affine(self, a, 1.0)

    def scale(self, factor: float) -> "Measure":
        return Affine(self, 0.0, factor)

    def negate(self) -> "Measure":
        return Affine(self, 0.0, -1.0)


# ---------------------------------------------------------------------------
# Window sums over sorted atoms
# ---------------------------------------------------------------------------

def _middle(part: list[float]) -> float:
    """The median of floats whose middle one or two are in sorted position
    (a sorted or partitioned list), summed from +0.0 as np.median's is (so
    -0.0 reads 0.0)."""
    h = len(part) // 2
    return 0.0 + part[h] if len(part) % 2 else (0.0 + part[h - 1] + part[h]) / 2


def _median(values: np.ndarray) -> float:
    """np.median bit for bit without loading numpy.ma; a NaN sorts last."""
    h = len(values) // 2
    part = np.partition(values, [h - 1, h, -1]).tolist()
    return math.nan if math.isnan(part[-1]) else _middle(part)


def _anchors(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row: a point inside every window of the row when they share one,
    else the row's median center; NaN (from -inf + inf) reads as 0, +-inf as
    +-float max."""
    a, b = lo.max(axis=1), hi.min(axis=1)
    with np.errstate(invalid="ignore"):
        mid = 0.5 * a + 0.5 * b
        apart = ~(a <= b)
        if apart.any():
            mid[apart] = [_median(row) for row in 0.5 * lo[apart] + 0.5 * hi[apart]]
    big = sys.float_info.max  # np.nan_to_num in floats, cheaper on a few anchors
    return np.array([0.0 if x != x else max(-big, min(big, x)) for x in mid.tolist()])


def _atom_window_sums(locs: np.ndarray, values: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atom counts and sums of each row of ``values`` over the atoms at the
    sorted ``locs`` inside each closed window of the (rows x windows)
    endpoints, with cumulative sums anchored inside each row's windows (see
    the module docstring); sums have shape (len(values), *lo.shape)."""
    il = np.searchsorted(locs, lo, side="left")
    ir = np.searchsorted(locs, hi, side="right")
    starts = np.searchsorted(locs, _anchors(lo, hi))
    sums = np.empty((len(values), *lo.shape))
    for k0 in set(starts.tolist()):
        # anchored[:, k] = sum(values[:, k0:k]) for k >= k0, -sum(values[:, k:k0]) below
        right = np.cumsum(values[:, k0:], axis=1)
        left = np.cumsum(values[:, :k0][:, ::-1], axis=1)[:, ::-1]
        anchored = np.concatenate([-left, np.zeros((len(values), 1)), right], axis=1)
        rows = starts == k0
        sums[:, rows] = anchored[:, ir[rows]] - anchored[:, il[rows]]
    return ir - il, sums


# ---------------------------------------------------------------------------
# Atomic combs
# ---------------------------------------------------------------------------

class AtomicComb(Measure):
    """Purely atomic measure enumerated in blocks with a certified tail bound.

    ``block(n)`` returns the (locations, weights) of block n >= 1, typically
    one positive and one negative atom.  ``tail_mass_bound(n)`` bounds the
    total weight of all blocks with index > n and must be nonincreasing.
    ``location_floor(n)`` is a lower bound on |location| over all atoms in
    blocks with index > n and must be nondecreasing; it is what lets window
    enumeration stop once every remaining atom lies outside the window.

    One cached enumeration serves construction, windows, atom lists and the
    sampler: construction enumerates until the tail bound falls below
    MASS_TOL/2 and checks the total mass, and later requests extend the same
    cache.  The cache keeps the atoms both sorted by location, for windows,
    and in enumeration order with the atom count after each block, for the
    sampler.
    """

    is_atomic = True

    def __init__(
        self,
        family: str,
        block: Callable[[int], tuple[Sequence[float], Sequence[float]]],
        tail_mass_bound: Callable[[int], float],
        location_floor: Callable[[int], float],
    ):
        self.family = family
        self._block = block
        self.tail_mass_bound = tail_mass_bound
        self.location_floor = location_floor
        self._blocks_done = 0
        # enumerated atoms in enumeration order, (locations, weights); the atom
        # count after each block (blocks 1..n hold _ends[n] atoms); the same
        # atoms sorted by location, with rows weights and weight * location
        self._enumerated = (np.empty(0), np.empty(0))
        self._ends = [0]
        self._sorted = (np.empty(0), np.empty((2, 0)))
        self._ensure_blocks(-math.inf)
        total = math.fsum(self._sorted[1][0]) + self.tail_mass_bound(self._blocks_done) / 2
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(
                f"{family}: total mass {total:.12g} != 1 within {MASS_TOL:g}")

    def _ensure_blocks(self, max_abs: float, max_atoms: int = _MAX_ATOMS,
                       min_blocks: int = 0) -> None:
        """Extend the cached enumeration to at least ``min_blocks`` blocks and
        until it certifiably covers [-max_abs, max_abs]: every non-enumerated
        atom has |z| > max_abs and the non-enumerated mass is below
        MASS_TOL/2.  A block enters only once ``_checked`` passes its atoms.
        A radius the atom locations overflow before reaching (an infinite one
        on an infinite comb) is refused.  The sorted cache is a stable sort of
        the enumeration, so atoms at one location keep their enumeration
        order.  A request refused at ``max_atoms`` keeps what it enumerated, so
        no atom is built twice; one refused for overflow leaves the cache as
        it was, not holding atoms out to the end of float range."""
        n, new = self._blocks_done, []
        try:
            while True:
                floor = self.location_floor(n)
                # An infinite floor means no atoms remain at any distance.
                covered = math.isinf(floor) or floor > max_abs
                if n >= min_blocks and covered and self.tail_mass_bound(n) < MASS_TOL / 2:
                    return
                new.append(_checked(*self._block(n + 1)))
                n += 1
                self._ends.append(self._ends[-1] + len(new[-1][0]))
                if max(n, self._ends[-1]) > max_atoms:
                    raise MeasureError(
                        f"{self.family}: enumeration needs more than {max_atoms} atoms "
                        "or blocks; supply closed forms for this family")
        except OverflowError:  # atom locations leave float range first
            n, new = self._blocks_done, []
            del self._ends[n + 1:]
            raise MeasureError(f"{self.family}: enumeration overflows before "
                               f"covering radius {max_abs:g}") from None
        finally:
            self._blocks_done = n
            if new:
                x = np.concatenate([self._enumerated[0], [v for locs, _ in new for v in locs]])
                w = np.concatenate([self._enumerated[1], [v for _, ws in new for v in ws]])
                order = np.argsort(x, kind="stable")
                self._enumerated = x, w
                self._sorted = x[order], np.stack([w, w * x])[:, order]

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        self._ensure_blocks(max_abs, max_atoms)
        locs, values = self._sorted
        keep = np.abs(locs) <= max_abs
        if np.count_nonzero(keep) > max_atoms:  # the cache may hold more than a fresh comb
            raise MeasureError(f"{self.family}: more than {max_atoms} atoms within {max_abs:g}")
        return locs[keep], values[0][keep]

    def _window_stats(self, lo, hi):
        self._ensure_blocks(float(max(np.abs(lo).max(), np.abs(hi).max())))
        _, sums = _atom_window_sums(*self._sorted, lo, hi)
        return sums[0], sums[1]

    def _leading(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        self._ensure_blocks(-math.inf, min_blocks=n)
        return self._enumerated[0][:self._ends[n]], self._enumerated[1][:self._ends[n]]

    def sampler(self):
        return _truncated_sampler(self, self._leading)


def _truncated_sampler(measure: Measure, leading: Callable[[int], tuple[np.ndarray, np.ndarray]]):
    """Index inversion over ``leading(n)``, the atoms of blocks 1..n in
    enumeration order, for the first n whose ``tail_mass_bound`` (the
    truncation bias) is below _SAMPLING_CUTOFF."""
    n = 1
    while measure.tail_mass_bound(n) >= _SAMPLING_CUTOFF:
        n += 1
        if n > 10_000:
            raise MeasureError(
                f"{measure.family}: tail bound never fell below the sampling "
                f"cutoff {_SAMPLING_CUTOFF:g}")
    locations, weights = leading(n)
    cum = np.cumsum(weights / weights.sum())

    def draw(u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(cum, u, side="right")
        return locations[np.minimum(idx, len(locations) - 1)]

    return draw, float(measure.tail_mass_bound(n))


def finite_comb(atoms: Sequence[Atom], family: str = "finite") -> AtomicComb:
    """Comb with a fixed finite list of atoms (tail mass is exactly zero)."""
    atoms = list(atoms)
    return _finite_comb([a.location for a in atoms], [a.weight for a in atoms], family)


def _finite_comb(locations: list[float], weights: list[float], family: str) -> AtomicComb:
    """``finite_comb`` of the atoms at ``locations`` with ``weights``."""
    if not locations:
        raise MeasureError("finite comb needs at least one atom")
    max_loc = max(map(abs, locations))
    return AtomicComb(
        family,
        lambda n: (locations, weights) if n == 1 else ((), ()),
        tail_mass_bound=lambda n: 0.0 if n >= 1 else 1.0,
        location_floor=lambda n: math.inf if n >= 1 else max_loc,
    )


# ---------------------------------------------------------------------------
# Built-in comb families
# ---------------------------------------------------------------------------

def comb_ex1() -> AtomicComb:
    """Alternating dyadic comb: weight 2^-2n at 2^2n and 2^-(2n-1) at -2^(2n-1).

    Every atom contributes exactly +1 or -1 to a window first moment, so the
    centered partial means take only the values 0 and -1.
    """

    def block(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (
            (2.0 ** (2 * n), -(2.0 ** (2 * n - 1))),
            (2.0 ** (-2 * n), 2.0 ** (-(2 * n - 1))),
        )

    return AtomicComb(
        "comb_ex1",
        block,
        tail_mass_bound=lambda n: 4.0 ** (-n),
        location_floor=lambda n: 2.0 ** (2 * n + 1),
    )


def comb_ex2() -> AtomicComb:
    """Symmetric dyadic comb: weight 2^-(n+1) at both +2^n and -2^n."""

    def block(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        w = 2.0 ** (-(n + 1))
        return (2.0 ** n, -(2.0 ** n)), (w, w)

    return AtomicComb(
        "comb_ex2",
        block,
        tail_mass_bound=lambda n: 2.0 ** (-n),
        location_floor=lambda n: 2.0 ** (n + 1),
    )


def comb_ex4() -> AtomicComb:
    """Lopsided triadic comb with the heavier weight on the positive side.

    The raw coefficients 2^(n-1)/3^(n+1) at +3^n and 2^(n-2)/3^(n+1) at -3^n
    sum to exactly 1/2, so construction doubles them to obtain a probability
    measure.
    """

    def block(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (
            (3.0 ** n, -(3.0 ** n)),
            (2.0 ** n / 3.0 ** (n + 1), 2.0 ** (n - 1) / 3.0 ** (n + 1)),
        )

    return AtomicComb(
        "comb_ex4",
        block,
        tail_mass_bound=lambda n: (2.0 / 3.0) ** n,
        location_floor=lambda n: 3.0 ** (n + 1),
    )


@functools.cache
def _comb_ex5_normalizer() -> float:
    # Partial sums of the raw weights plus half the geometric remainder
    # bound; terms decay like (2/3)^n so n = 220 leaves a negligible tail.
    raw = 0.0
    for n in range(1, 221):
        raw += 2.0 ** n / (3.0 ** n + 1.0 / n) + 2.0 ** (n - 1) / 3.0 ** n
    remainder = 3.0 * (2.0 / 3.0) ** 220  # sum of both strands past n = 220
    return 1.0 / (raw + remainder / 2.0)


def comb_ex5() -> AtomicComb:
    """Triadic comb with positive atoms displaced to 3^n + 1/n.

    The normalizer K is computed once, at the first construction, from the
    raw weight sum (K is about 0.3564, strictly between 1/3 and 1/2).
    """
    K = _comb_ex5_normalizer()

    def block(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        zp = 3.0 ** n + 1.0 / n
        return (zp, -(3.0 ** n)), (K * 2.0 ** n / zp, K * 2.0 ** (n - 1) / 3.0 ** n)

    comb = AtomicComb(
        "comb_ex5",
        block,
        tail_mass_bound=lambda n: 3.0 * K * (2.0 / 3.0) ** n,
        location_floor=lambda n: 3.0 ** (n + 1),
    )
    comb.normalizer = K
    if not (0.0 < K < 0.5):
        raise MeasureError(f"comb_ex5 normalizer {K} outside (0, 1/2)")
    return comb


class IntegerPowerComb(Measure):
    """Atoms at every positive integer n with weight n^-p / zeta(p), p > 1.

    Dense in the integers, so windows use Hurwitz zeta closed forms instead
    of enumeration:  sum_{n=a}^{b} n^-s = zeta(s, a) - zeta(s, b + 1), with
    zeta evaluated once per distinct endpoint of a call (a scan's windows
    wider than their center all start at a = 1).  The atom count within
    |z| <= t is floor(t), so ``atom_arrays`` refuses too many atoms before
    building any, and the sampler inverts atoms 1..n as a comb's does.
    """

    is_atomic = True

    def __init__(self, p: float):
        p = _number("integer power comb exponent p", p, gt=1, error=MeasureError)
        from scipy.special import zeta
        self.p, self.zeta_p, self._zeta = p, float(zeta(p)), zeta
        self.family = f"integer_power(p={p:g})"
        self.tail_mass_bound = lambda n: (max(n, 1) ** (1.0 - p) / (p - 1.0)) / self.zeta_p

    def sampler(self):
        return _truncated_sampler(self, lambda n: (np.arange(1.0, n + 1.0), np.array(
            [float(k) ** -self.p / self.zeta_p for k in range(1, n + 1)])))

    def _window_stats(self, lo, hi):
        a, b = np.maximum(np.ceil(lo), 1.0), np.floor(hi)
        empty = b < a
        # zeta once per distinct value of a and of b + 1
        distinct, inverse = np.unique(np.concatenate([a.ravel(), (b + 1.0).ravel()]),
                                      return_inverse=True)

        def partial(s: float) -> np.ndarray:
            za, zb = self._zeta(s, distinct)[inverse].reshape(2, *a.shape)
            return np.where(empty, 0.0, za - zb) / self.zeta_p

        return partial(self.p), partial(self.p - 1.0)

    def _outside(self, lo, hi):  # zeta(p, n) / zeta(p) is the mass at n and beyond
        out = np.where(hi < 1.0, 1.0, self._zeta(self.p, np.floor(hi) + 1.0) / self.zeta_p)
        if (below := lo > 1.0).any():  # no atom lies below 1
            out[below] += 1.0 - self._zeta(self.p, np.ceil(lo[below])) / self.zeta_p
        return out

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        if max_abs >= max_atoms + 1:
            raise MeasureError(
                f"{self.family}: more than {max_atoms} atoms within {max_abs:g}")
        n = np.arange(1.0, math.floor(max(max_abs, 0.0)) + 1.0)
        return n, n ** -self.p / self.zeta_p


def integer_power_comb(p: float) -> IntegerPowerComb:
    """Atoms at every positive integer n with weight n^-p / zeta(p), p > 1."""
    return IntegerPowerComb(p)


# ---------------------------------------------------------------------------
# Density measures
# ---------------------------------------------------------------------------

class DensityMeasure(Measure):
    """Absolutely continuous measure given by a user density ``pdf``.

    Windows are adaptive quadrature, one window at a time, and construction
    checks that the pdf alone (not x * pdf, which a heavy tail makes
    diverge) integrates to 1 over its support.
    """

    def __init__(self, family: str, pdf: Callable[[float], float],
                 support: tuple[float, float] = (-math.inf, math.inf)):
        self.family = family
        self.pdf = pdf
        self.support = (float(support[0]), float(support[1]))
        if not self.support[0] <= self.support[1]:
            raise MeasureError(f"{family}: support requires lo <= hi, got {self.support}")
        total = _checked_quad(pdf, *self.support, family)
        if abs(total - 1.0) > max(MASS_TOL, 100 * _QUAD_ABS_TOL):
            raise MeasureError(f"{family}: density integrates to {total}, not 1")

    def _stats_between(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(masses, moments) of windows with lo < hi inside the support."""
        quad = functools.partial(_checked_quad, what=self.family)

        def xpdf(x: float) -> float:
            return x * self.pdf(x)

        # Windows straddling 0 integrate their halves separately so that
        # symmetric windows cancel bitwise rather than through quadrature error.
        return np.array([
            (quad(self.pdf, a, b),
             quad(xpdf, a, 0.0) + quad(xpdf, 0.0, b) if a < 0.0 < b else quad(xpdf, a, b))
            for a, b in zip(lo.tolist(), hi.tolist())]).T

    def _window_stats(self, lo, hi):
        # each window on its own: the rows need no anchor
        lo = np.maximum(lo, self.support[0]).ravel()
        hi = np.minimum(hi, self.support[1]).ravel()
        inside = lo < hi
        if inside.all():
            return self._stats_between(lo, hi)
        masses, moments = np.zeros(lo.shape), np.zeros(lo.shape)
        if inside.any():
            masses[inside], moments[inside] = self._stats_between(lo[inside], hi[inside])
        return masses, moments


class _ClosedForm(DensityMeasure):
    """A standard law Z on the whole line, from closed forms; ``gaussian`` and
    ``cauchy`` are its ``Affine`` images, which map every window, tail, pdf
    offset and draw to it.

    ``pdf`` is Z's density over an array (a float in gives a float out),
    and warns nothing.  ``primitives(z)`` returns arrays (F, H)
    over an array z: F a primitive of Z's pdf and H / ``unit`` one of
    z * pdf(z).  ``tails(u, v)`` is P(Z > u) + P(Z < -v) for any real u, v.
    ``quantile`` is Z's inverse CDF, if any, and may write over its uniforms.
    """

    def __init__(self, family: str, pdf: Callable[[np.ndarray], np.ndarray],
                 primitives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 tails: Callable[[np.ndarray, np.ndarray], np.ndarray], unit: float = 1.0,
                 quantile: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.family, self.pdf = family, pdf
        self._primitives, self._tails = primitives, tails
        self._unit, self._quantile = unit, quantile

    def _stats_between(self, lo, hi):
        F, H = self._primitives(np.concatenate([lo, hi]))
        n = len(lo)
        if not np.isfinite(H).all() and (both := np.isinf(H[:n]) & (H[:n] == H[n:])).any():
            raise MeasureError(f"{self.family}: the first moment diverges at both ends of "
                               f"[{lo[both][0]:g}, {hi[both][0]:g}]")  # inf - inf
        return F[n:] - F[:n], (1.0 / self._unit) * (H[n:] - H[:n])

    def _outside(self, lo, hi):
        return self._tails(hi, -lo)

    def _pdf_at(self, offset):  # Z's origin is 0
        return self.pdf(offset)

    def sampler(self):
        return super().sampler() if self._quantile is None else (self._quantile, 0.0)


def _rescaled_pdf(pdf: Callable, a: float, s: float) -> Callable:
    """The density x -> pdf((x - a) / s) / |s| of s * X + a, where ``pdf`` is
    X's.  An x past float range in X's frame reads pdf(+-inf) without a
    warning, over an array as over a float."""
    def at(x):
        with np.errstate(over="ignore"):
            z = (x - a) / s
        return pdf(z) / abs(s)
    return at


def gaussian(mu: float = 0.0, sigma: float = 1.0) -> Measure:
    """Normal distribution, the law of mu + sigma * Z: Z's CDF ndtr and
    z * pdf(z) = -phi'(z)."""
    mu = _number("gaussian mu", mu, error=MeasureError)
    sigma = _number("gaussian sigma", sigma, gt=0, error=MeasureError)
    from scipy.special import ndtr, ndtri

    def pdf(z):
        z2 = np.clip(z, -40.0, 40.0) ** 2  # z * z can overflow; phi is 0.0 past |z| ~ 38.6
        return np.exp(-0.5 * z2) / math.sqrt(2 * math.pi)

    return Affine(_ClosedForm("gaussian", pdf, lambda z: (ndtr(z), pdf(z)),
                              lambda u, v: ndtr(-u) + ndtr(-v),
                              unit=-1.0, quantile=lambda u: ndtri(u, out=u)), mu, sigma)


def _log1p_sq(u: np.ndarray) -> np.ndarray:
    """log(1 + u^2), stable for huge |u|."""
    au = np.abs(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(au > 1.0, 2.0 * np.log(au) + np.log1p(au ** -2.0), np.log1p(u * u))


def _cauchy_upper(u: np.ndarray) -> np.ndarray:
    """P(Z > u) for standard Cauchy Z, by atan of 1/u at large u for precision."""
    return np.where(u <= 1, 0.5 - np.arctan(u) / math.pi,
                    np.arctan(1.0 / np.maximum(u, 1.0)) / math.pi)


def cauchy(loc: float = 0.0, scale: float = 1.0) -> Measure:
    """Cauchy distribution, the law of loc + scale * Z: Z's CDF
    1/2 + atan(z)/pi and z * pdf(z) the derivative of log(1 + z^2) / (2 pi)."""
    loc = _number("cauchy loc", loc, error=MeasureError)
    scale = _number("cauchy scale", scale, gt=0, error=MeasureError)

    def pdf(z):
        with np.errstate(over="ignore"):  # z * z past float range: the density is 0.0 there
            return 1.0 / (math.pi * (1.0 + z * z))

    return Affine(_ClosedForm(
        "cauchy", pdf, lambda z: (0.5 + np.arctan(z) / math.pi, _log1p_sq(z)),
        lambda u, v: _cauchy_upper(u) + _cauchy_upper(v), unit=2 * math.pi,
        # tan(pi * (u - 1/2)), written over u
        quantile=lambda u: np.tan(np.multiply(np.subtract(u, 0.5, out=u), np.pi, out=u), out=u)),
        loc, scale)


def _power_tail_constant(exponent: float) -> float:
    # Half-line mass of 1/(1 + C x^e) is C^(-1/e) * (pi/e)/sin(pi/e);
    # choose C so that it equals 1/2.
    half_integral = (math.pi / exponent) / math.sin(math.pi / exponent)
    return (2.0 * half_integral) ** exponent


def power_tail(a: float, b: float) -> DensityMeasure:
    """Two-sided power-law density 1/(1 + C x^a) on x >= 0, 1/(1 + D |x|^b)
    on x < 0, with a, b in (1, 2) and C, D fixed so each half carries mass 1/2.

    Window mass and moment reduce to Gauss hypergeometric evaluations:
    int_0^X x^(m-1) / (1 + C x^e) dx = (X^m / m) 2F1(1, m/e; m/e + 1; -C X^e).
    """
    a = _number("power_tail a", a, error=MeasureError)
    b = _number("power_tail b", b, error=MeasureError)
    if not (1.0 < a < 2.0 and 1.0 < b < 2.0):
        raise MeasureError(f"power_tail exponents must lie in (1, 2), got a={a}, b={b}")
    from scipy.special import hyp2f1
    C, D = _power_tail_constant(a), _power_tail_constant(b)

    def pdf(x):
        right = x >= 0
        with np.errstate(over="ignore"):  # |x|^e past float range: the density is 0.0 there
            return 1.0 / (1.0 + np.where(right, C, D) * np.abs(x) ** np.where(right, a, b))

    def _halves(coef: float, e: float, X: np.ndarray,
                moment: bool = True) -> tuple[np.ndarray, ...]:
        # int_0^X x^(m-1)/(1 + coef x^e) dx for X >= 0 and m = 1, then m = 2 if ``moment``
        h1 = np.zeros(X.shape)
        log_x = np.log(np.maximum(X, 5e-324))  # X = 0 lies in neither region below
        log_z = math.log(coef) + e * log_x
        near = (X > 0.0) & (log_z < 230.0)  # coef * X^e representable; hyp2f1 is accurate
        far = (X > 0.0) & ~near
        Xn = X[near]
        z = -(coef * Xn ** e)
        h1[near] = Xn * hyp2f1(1.0, 1.0 / e, 1.0 / e + 1.0, z)
        # Asymptotic region: 1/(1 + coef x^e) = (coef x^e)^-1 + O(x^-2e).
        log_xf = log_x[far]
        full = coef ** (-1.0 / e) * (math.pi / e) / math.sin(math.pi / e)
        h1[far] = full - np.exp((1.0 - e) * log_xf - math.log(coef)) / (e - 1.0)
        if not moment:
            return (h1,)
        h2 = np.zeros(X.shape)
        h2[near] = (Xn ** 2.0 / 2.0) * hyp2f1(1.0, 2.0 / e, 2.0 / e + 1.0, z)
        const = -coef ** (-2.0 / e) * (math.pi / e) / math.sin(math.pi * (2.0 - e) / e)
        h2[far] = np.exp((2.0 - e) * log_xf - math.log(coef)) / (2.0 - e) + const
        return h1, h2

    def primitives(x):
        # primitives of pdf and x * pdf anchored at 0
        pos1, pos2 = _halves(C, a, np.maximum(x, 0.0))
        neg1, neg2 = _halves(D, b, np.maximum(-x, 0.0))
        return pos1 - neg1, pos2 + neg2

    def upper(coef: float, e: float, X: np.ndarray, h1: np.ndarray) -> np.ndarray:
        # int_X^inf dx / (1 + coef x^e) = 1/2 - h1 cancels far out, so below 1e-8 it is
        # X^(1-e) / (coef (e-1)) 2F1(1, (e-1)/e; (2e-1)/e; -1/(coef X^e)), in logs
        q = 0.5 - h1
        if (far := q < 1e-8).any():
            log_c, log_x = math.log(coef), np.log(X[far])
            q[far] = (np.exp((1.0 - e) * log_x - log_c) / (e - 1.0) * hyp2f1(
                1.0, (e - 1.0) / e, (2.0 * e - 1.0) / e, -np.exp(-log_c - e * log_x)))
        return q

    def tails(u, v):  # P(Z > u) + P(Z < -v); past 0 a side adds the other half out to -u (-v)
        right = _halves(C, a, np.concatenate([u, -v]), moment=False)[0].reshape(2, -1)
        left = _halves(D, b, np.concatenate([v, -u]), moment=False)[0].reshape(2, -1)
        return (upper(C, a, u, right[0]) + left[1]) + (upper(D, b, v, left[0]) + right[1])

    return _ClosedForm("power_tail", pdf, primitives, tails)


# ---------------------------------------------------------------------------
# Empirical measures and the affine wrapper
# ---------------------------------------------------------------------------

class EmpiricalMeasure(Measure):
    """Equal-weight point masses on a finite sample."""

    is_atomic = True

    def __init__(self, samples: Sequence[float]):
        numeric = isinstance(samples, np.ndarray) and samples.dtype.kind in "iuf"
        if not (numeric or isinstance(samples, Sequence)):
            raise MeasureError(f"empirical samples must be numbers, got {samples!r}")
        arr = np.asarray(samples if numeric else
                         [_number("empirical samples", x, error=MeasureError) for x in samples],
                         dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise MeasureError("empirical measure needs a nonempty 1-d sample")
        if not np.all(np.isfinite(arr)):
            raise MeasureError("empirical samples must be finite")
        self.samples = np.sort(arr)
        self.family = "empirical"

    def _window_stats(self, lo, hi):
        counts, sums = _atom_window_sums(self.samples, self.samples[None], lo, hi)
        return counts / self.samples.size, sums[0] / self.samples.size

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        locs = self.samples[np.abs(self.samples) <= max_abs]
        return locs, np.full(locs.shape, 1.0 / self.samples.size)

    def sampler(self):
        n = self.samples.size
        return (lambda u: self.samples[np.minimum((u * n).astype(int), n - 1)]), 0.0


class Affine(Measure):
    """Law of s * X + a when ``inner`` is the law of X (s finite and nonzero).

    Windows map back through the inverse map x = (y - a) / s; a negative s
    swaps the endpoints.  A finite end mapped past float range reads +-inf,
    and its window stands only where the inner law answers a finite moment.
    """

    def __init__(self, inner: Measure, a: float = 0.0, s: float = 1.0):
        a = _number("affine shift", a, error=MeasureError)
        s = _number("scale factor", s, error=MeasureError)
        if s == 0.0:
            raise MeasureError("scale factor must be nonzero")
        self.inner, self.a, self.s = inner, a, s
        self.is_atomic = inner.is_atomic
        self._origin, self._width = s * inner._origin + a, abs(s) * inner._width
        self.family = f"affine({inner.family}, a={a:g}, s={s:g})"
        if inner.pdf is not None:
            self.pdf = _rescaled_pdf(inner.pdf, a, s)
            ends = [s * v + a for v in inner.support]
            self.support = (min(ends), max(ends))

    def _inverse(self, lo, hi):  # the inner law's windows, or complements, behind [lo, hi]
        lo, hi = (lo - self.a) / self.s, (hi - self.a) / self.s
        return (hi, lo) if self.s < 0 else (lo, hi)

    def _window_stats(self, lo, hi):
        with np.errstate(over="ignore"):  # an end past float range maps to +-inf
            inner = self._inverse(lo, hi)
        refusal = None
        try:
            masses, moments = self.inner._window_stats(*inner)
        except MeasureError as exc:  # a refused request reads moments NaN
            refusal, moments = exc, np.full(lo.size, math.nan)
        if not np.isfinite(moments).all():
            far = np.isinf(inner).sum(axis=0) > np.isinf((lo, hi)).sum(axis=0)
            if (far := far.ravel() & ~np.isfinite(moments).ravel()).any():
                i = np.flatnonzero(far)[0]
                raise MeasureError(f"{self.family}: window [{lo.flat[i]:.17g}, {hi.flat[i]:.17g}] "
                                   "maps past float range in the inner law's frame")
            if refusal is not None:
                raise refusal
        return masses, self.s * moments + self.a * masses

    def _pdf_at(self, offset):  # the inner law's origin maps to this one's
        return self.inner._pdf_at(offset / self.s) / abs(self.s)

    def _outside(self, lo, hi):
        with np.errstate(over="ignore"):  # an end past float range maps to +-inf
            lo, hi = self._inverse(lo, hi)
        if lo.min() > -math.inf or hi.max() < math.inf:  # no window is the whole line
            return self.inner._outside(lo, hi)
        out, part = np.zeros(lo.shape), (lo > -math.inf) | (hi < math.inf)
        if part.any():  # nothing lies outside the whole line, which an infinite comb refuses
            out[part] = self.inner._outside(lo[part], hi[part])
        return out

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        with np.errstate(over="ignore"):  # a radius past float range reads inf
            radius = (max_abs + abs(self.a)) / abs(self.s)
        x, w = self.inner.atom_arrays(radius, max_atoms)
        y = self.s * x + self.a
        keep = np.abs(y) <= max_abs
        y, w = y[keep], w[keep]
        return (y[::-1], w[::-1]) if self.s < 0 else (y, w)

    def sampler(self):
        # Composed level by level: a negative s must map each draw, not
        # mirror the uniforms.
        (draw, bias), s, a = self.inner.sampler(), self.s, self.a

        def scaled(u: np.ndarray) -> np.ndarray:  # a + s * x, written over the draws x
            x = draw(u)
            x *= s
            x += a
            return x
        return scaled, bias


# ---------------------------------------------------------------------------
# Family registry and JSON documents
# ---------------------------------------------------------------------------

# family -> (constructor, required keys, optional keys).  The wrappers take
# the wrapped measure as ``inner``.
_FAMILIES: dict[str, tuple[Callable[..., Measure], set[str], set[str]]] = {
    "comb_ex1": (comb_ex1, set(), set()),
    "comb_ex2": (comb_ex2, set(), set()),
    "comb_ex4": (comb_ex4, set(), set()),
    "comb_ex5": (comb_ex5, set(), set()),
    "gaussian": (gaussian, set(), {"mu", "sigma"}),
    "cauchy": (cauchy, set(), {"loc", "scale"}),
    "power_tail": (power_tail, {"a", "b"}, set()),
    "empirical": (EmpiricalMeasure, {"samples"}, set()),
    "shift": (lambda inner, a: inner.shift(a), {"inner", "a"}, set()),
    "scale": (lambda inner, factor: inner.scale(factor), {"inner", "factor"}, set()),
    "negate": (lambda inner: inner.negate(), {"inner"}, set()),
}


def make_measure(family: str, **params) -> Measure:
    """Build a measure from a family name and keyword parameters."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise MeasureError(f"unknown measure family {family!r}")
    build, required, optional = _FAMILIES[family]
    missing = required - set(params)
    if missing:
        raise MeasureError(f"family {family!r} needs keys {sorted(missing)}")
    extra = set(params) - required - optional
    if extra:
        raise MeasureError(f"unknown keys for family {family!r}: {sorted(extra)}")
    return build(**params)


def measure_from_document(doc: dict) -> Measure:
    """Parse a JSON measure object (strict keys; see the CLI documents)."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise MeasureError("measure object must be a dict with a 'family' key")
    params = {k: v for k, v in doc.items() if k != "family"}
    if "inner" in params:
        params["inner"] = measure_from_document(params["inner"])
    return make_measure(doc["family"], **params)
