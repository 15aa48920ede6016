"""Probability measures on the real line and their one window primitive.

Every measure answers a whole batch of windows in one call::

    masses, moments = measure.window_stats(lo, hi, include_lo, include_hi)

``lo`` and ``hi`` are arrays (or scalars) of window endpoints, and the two
results hold P([lo, hi]) and int_{[lo, hi]} x dP for each window.  Windows
are closed by default; ``include_lo``/``include_hi`` False open that end,
which matters only where an atom sits exactly on the endpoint (splitting a
window at an atom) and never for densities.  Scalar endpoints give 0-d
arrays.

Representations:

* ``AtomicComb``: a lazily enumerated sequence of weighted point masses with
  a certified bound on the mass beyond any enumeration prefix.  Windows are
  sums over the sorted atom locations, with ``searchsorted`` placing each
  endpoint (an inclusion flag picks its side).
* ``IntegerPowerComb``: a comb dense in the integers.  Its windows are
  Hurwitz zeta closed forms, and it declares its atom count within any
  radius, so no caller has to enumerate atoms to learn that there are too
  many.
* ``DensityMeasure``: an absolutely continuous measure.  Built-in families
  evaluate closed forms over the whole window array; any other density
  falls back to adaptive quadrature, one window at a time.
* ``EmpiricalMeasure``: equal-weight point masses on a finite sample.
* ``Affine``: the law of s * X + a for any of the above.  Windows map back
  through the inverse map (a negative s swaps the endpoints and their
  flags), so wrapped measures keep the accuracy of the wrapped one.

Accuracy of atomic windows.  A window sum over sorted atoms is a difference
of cumulative sums, and one global prefix sum would cancel every atom left
of the window: comb_ex4 is enumerated to about 3^53, where single atom
moments reach about 1e15, so a global prefix loses about 0.25 absolute.  The
cumulative sums are therefore anchored at a point inside the windows (the
middle of their common part when they share one, as every scan's windows
do) and grow outward from it in both directions.  A window that contains
the anchor then adds only its own atoms, so its rounding error is relative
to the atoms inside it; integer contributions such as comb_ex1's +-1 stay
exact.
"""

from __future__ import annotations

import math
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
    "QuadraturePolicy",
    "MASS_TOL",
    "checked_quad",
    "make_measure",
    "measure_from_document",
    "measure_document",
    "finite_comb",
    "gaussian",
    "cauchy",
    "power_tail",
    "comb_ex1",
    "comb_ex2",
    "comb_ex4",
    "comb_ex5",
    "integer_power_comb",
    "COMB_FAMILIES",
    "DENSITY_FAMILIES",
]

MASS_TOL = 1e-9

# Hard cap on atom enumeration; combs needing more must supply closed forms.
_MAX_ATOMS = 200_000


class MeasureError(ValueError):
    """Invalid measure construction or an unsupported window request."""


class QuadratureError(MeasureError):
    """Quadrature failed to reach tolerance; carries the partial estimate."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def _finite(name: str, value) -> float:
    """``value`` as a finite float, or a MeasureError naming the parameter."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise MeasureError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise MeasureError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class Atom:
    """A point mass: ``weight`` at ``location``."""

    location: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise MeasureError(f"atom location must be finite, got {self.location}")
        if not (self.weight > 0.0):
            raise MeasureError(f"atom weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class QuadraturePolicy:
    """Absolute-tolerance budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 10_000


def checked_quad(f: Callable[[float], float], a: float, b: float,
                 policy: QuadraturePolicy, what: str) -> tuple[float, dict]:
    """``integrate.quad`` of f over [a, b] that refuses an unconverged result.

    Returns the value and quad's info dict (its final subintervals are
    ``alist[:last]``, ``blist[:last]``).  Raises QuadratureError when quad
    reports a problem (it would otherwise only warn) or when its error
    estimate exceeds max(100 * abs_tol, 1e-8 * |value|).
    """
    from scipy import integrate  # looked up per call, so a wrapped quad is seen
    out = integrate.quad(f, a, b, epsabs=policy.abs_tol, epsrel=1e-12,
                         limit=policy.max_subdivisions, full_output=True)
    value, abserr, info = out[:3]
    if len(out) > 3 or abserr > max(100 * policy.abs_tol, 1e-8 * abs(value)):
        raise QuadratureError(
            f"{what}: quadrature on [{a:g}, {b:g}] did not converge "
            f"(estimate {value:.6g}, error estimate {abserr:.3g})",
            estimate=value, error_estimate=abserr)
    return value, info


class Measure:
    """Common interface for all measure representations.

    Subclasses implement ``_window_stats`` on validated 1-d endpoint arrays;
    the public ``window_stats`` broadcasts and checks the endpoints.
    """

    is_atomic = False

    def window_stats(self, lo, hi, include_lo: bool = True,
                     include_hi: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(masses, moments) over the windows [lo, hi], elementwise over the
        broadcast endpoint arrays."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        ordered = lo <= hi
        if not ordered.all():
            i = np.flatnonzero(~ordered.ravel())[0]
            raise MeasureError(
                f"window requires lo <= hi, got [{lo.flat[i]}, {hi.flat[i]}]")
        if lo.size == 0:
            return np.zeros(lo.shape), np.zeros(lo.shape)
        masses, moments = self._window_stats(lo.ravel(), hi.ravel(),
                                              bool(include_lo), bool(include_hi))
        return masses.reshape(lo.shape), moments.reshape(lo.shape)

    def _window_stats(self, lo: np.ndarray, hi: np.ndarray, include_lo: bool,
                      include_hi: bool) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def tail_probability(self, t):
        """P(|X| > t), elementwise over an array ``t`` (a float for a scalar)."""
        arr = np.asarray(t, dtype=float)
        out = self._tail(arr.reshape(-1)).reshape(arr.shape)
        return float(out) if out.ndim == 0 else out

    def _tail(self, t: np.ndarray) -> np.ndarray:
        r = np.abs(t)
        masses, _ = self._window_stats(-r, r, True, True)
        return np.where(t < 0, 1.0, np.maximum(0.0, 1.0 - masses))

    def atoms_within(self, max_abs: float, max_atoms: int = _MAX_ATOMS) -> list[Atom]:
        """Atoms with |location| <= max_abs; empty for continuous measures."""
        locs, weights = self.atom_arrays(max_abs, max_atoms)
        return [Atom(x, w) for x, w in zip(locs.tolist(), weights.tolist())]

    def atom_arrays(self, max_abs: float,
                    max_atoms: int = _MAX_ATOMS) -> tuple[np.ndarray, np.ndarray]:
        """(locations, weights) of the atoms with |location| <= max_abs, sorted
        by location; raises MeasureError when there are more than
        ``max_atoms`` of them."""
        return np.empty(0), np.empty(0)

    def atom_locations(self, max_abs: float, max_atoms: int = _MAX_ATOMS) -> np.ndarray:
        """Sorted locations of the atoms with |location| <= max_abs; raises
        MeasureError when there are more than ``max_atoms`` of them."""
        return self.atom_arrays(max_abs, max_atoms)[0]

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

def _anchor(lo: np.ndarray, hi: np.ndarray) -> float:
    """A point inside every window when the windows share one, else their
    median center."""
    a, b = lo.max(), hi.min()
    mid = 0.5 * a + 0.5 * b if a <= b else np.median(0.5 * lo + 0.5 * hi)
    return float(np.nan_to_num(mid))


def _atom_window_sums(locs: np.ndarray, values: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, include_lo: bool,
                      include_hi: bool) -> tuple[np.ndarray, np.ndarray]:
    """Atom counts and sums of each row of ``values`` over the atoms at the
    sorted ``locs`` inside each window, with cumulative sums anchored inside
    the windows (see the module docstring)."""
    il = np.searchsorted(locs, lo, side="left" if include_lo else "right")
    ir = np.maximum(il, np.searchsorted(locs, hi, side="right" if include_hi else "left"))
    k0 = int(np.searchsorted(locs, _anchor(lo, hi)))
    # anchored[:, k] = sum(values[:, k0:k]) for k >= k0, -sum(values[:, k:k0]) below
    right = np.cumsum(values[:, k0:], axis=1)
    left = np.cumsum(values[:, :k0][:, ::-1], axis=1)[:, ::-1]
    anchored = np.concatenate([-left, np.zeros((len(values), 1)), right], axis=1)
    return ir - il, anchored[:, ir] - anchored[:, il]


# ---------------------------------------------------------------------------
# Atomic combs
# ---------------------------------------------------------------------------

class AtomicComb(Measure):
    """Purely atomic measure enumerated in blocks with a certified tail bound.

    ``block(n)`` returns the atoms of block n >= 1 (typically one positive
    and one negative atom).  ``tail_mass_bound(n)`` bounds the total weight
    of all blocks with index > n and must be nonincreasing.
    ``location_floor(n)`` is a lower bound on |location| over all atoms in
    blocks with index > n and must be nondecreasing; it is what lets window
    enumeration stop once every remaining atom lies outside the window.
    """

    is_atomic = True

    def __init__(
        self,
        family: str,
        block: Callable[[int], tuple[Atom, ...]],
        tail_mass_bound: Callable[[int], float],
        location_floor: Callable[[int], float],
        *,
        mass_tol: float = MASS_TOL,
        validate: bool = True,
    ):
        self.family = family
        self._block = block
        self.tail_mass_bound = tail_mass_bound
        self.location_floor = location_floor
        self.mass_tol = mass_tol
        self._atoms: list[Atom] = []
        self._blocks_done = 0
        # enumerated atoms sorted by location; rows: weights, weight * location
        self._sorted = (np.empty(0), np.empty((2, 0)))
        if validate:
            self._validate_total_mass()

    def _validate_total_mass(self) -> None:
        n, total = 0, 0.0
        while self.tail_mass_bound(n) >= self.mass_tol / 2:
            n += 1
            block = self._block(n)
            total += sum(a.weight for a in block)
            if n > _MAX_ATOMS:
                raise MeasureError(
                    f"{self.family}: tail bound never fell below mass_tol/2")
        bound = self.tail_mass_bound(n)
        if abs(total + bound / 2 - 1.0) > self.mass_tol:
            raise MeasureError(
                f"{self.family}: total mass {total + bound / 2:.12g} != 1 "
                f"within {self.mass_tol:g}")

    def _ensure_blocks(self, max_abs: float, max_atoms: int = _MAX_ATOMS) -> None:
        """Extend the cached enumeration until it certifiably covers
        [-max_abs, max_abs]: every non-enumerated atom has |z| > max_abs and
        the non-enumerated mass is below mass_tol/2."""
        while True:
            floor = self.location_floor(self._blocks_done)
            bound = self.tail_mass_bound(self._blocks_done)
            # An infinite floor means no atoms remain at any distance.
            if (math.isinf(floor) or floor > max_abs) and bound < self.mass_tol / 2:
                return
            self._blocks_done += 1
            self._atoms.extend(self._block(self._blocks_done))
            if len(self._atoms) > max_atoms:
                raise MeasureError(
                    f"{self.family}: window needs more than {max_atoms} atoms; "
                    "supply closed forms for this family")

    def _sorted_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        locs, values = self._sorted
        if len(locs) != len(self._atoms):
            x = np.array([a.location for a in self._atoms])
            w = np.array([a.weight for a in self._atoms])
            order = np.argsort(x, kind="stable")
            self._sorted = locs, values = x[order], np.stack([w, w * x])[:, order]
        return locs, values

    def atoms_within(self, max_abs: float, max_atoms: int = _MAX_ATOMS) -> list[Atom]:
        self._ensure_blocks(max_abs, max_atoms)
        return [a for a in self._atoms if abs(a.location) <= max_abs]

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        self._ensure_blocks(max_abs, max_atoms)
        locs, values = self._sorted_atoms()
        keep = np.abs(locs) <= max_abs
        return locs[keep], values[0][keep]

    def _window_stats(self, lo, hi, include_lo, include_hi):
        self._ensure_blocks(float(max(np.abs(lo).max(), np.abs(hi).max())))
        locs, values = self._sorted_atoms()
        _, sums = _atom_window_sums(locs, values, lo, hi, include_lo, include_hi)
        return sums[0], sums[1]


def finite_comb(atoms: Sequence[Atom], family: str = "finite",
                validate: bool = True) -> AtomicComb:
    """Comb with a fixed finite list of atoms (tail mass is exactly zero)."""
    atoms = list(atoms)
    if not atoms:
        raise MeasureError("finite comb needs at least one atom")
    max_loc = max(abs(a.location) for a in atoms)

    def block(n: int) -> tuple[Atom, ...]:
        return tuple(atoms) if n == 1 else ()

    return AtomicComb(
        family,
        block,
        tail_mass_bound=lambda n: 0.0 if n >= 1 else 1.0,
        location_floor=lambda n: math.inf if n >= 1 else max_loc,
        validate=validate,
    )


# ---------------------------------------------------------------------------
# Built-in comb families
# ---------------------------------------------------------------------------

def comb_ex1() -> AtomicComb:
    """Alternating dyadic comb: weight 2^-2n at 2^2n and 2^-(2n-1) at -2^(2n-1).

    Every atom contributes exactly +1 or -1 to a window first moment, so the
    centered partial means take only the values 0 and -1.
    """

    def block(n: int) -> tuple[Atom, ...]:
        return (
            Atom(2.0 ** (2 * n), 2.0 ** (-2 * n)),
            Atom(-(2.0 ** (2 * n - 1)), 2.0 ** (-(2 * n - 1))),
        )

    return AtomicComb(
        "comb_ex1",
        block,
        tail_mass_bound=lambda n: 4.0 ** (-n),
        location_floor=lambda n: 2.0 ** (2 * n + 1),
    )


def comb_ex2() -> AtomicComb:
    """Symmetric dyadic comb: weight 2^-(n+1) at both +2^n and -2^n."""

    def block(n: int) -> tuple[Atom, ...]:
        w = 2.0 ** (-(n + 1))
        return (Atom(2.0 ** n, w), Atom(-(2.0 ** n), w))

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

    def block(n: int) -> tuple[Atom, ...]:
        return (
            Atom(3.0 ** n, 2.0 ** n / 3.0 ** (n + 1)),
            Atom(-(3.0 ** n), 2.0 ** (n - 1) / 3.0 ** (n + 1)),
        )

    return AtomicComb(
        "comb_ex4",
        block,
        tail_mass_bound=lambda n: (2.0 / 3.0) ** n,
        location_floor=lambda n: 3.0 ** (n + 1),
    )


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

    The normalizer K is computed at construction from the raw weight sum
    (K is about 0.3564, strictly between 1/3 and 1/2).
    """
    K = _comb_ex5_normalizer()

    def block(n: int) -> tuple[Atom, ...]:
        zp = 3.0 ** n + 1.0 / n
        return (Atom(zp, K * 2.0 ** n / zp), Atom(-(3.0 ** n), K * 2.0 ** (n - 1) / 3.0 ** n))

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


class IntegerPowerComb(AtomicComb):
    """Atoms at every positive integer n with weight n^-p / zeta(p), p > 1.

    Dense in the integers, so windows use Hurwitz zeta closed forms instead
    of enumeration:  sum_{n=a}^{b} n^-s = zeta(s, a) - zeta(s, b + 1).  The
    atom count within |z| <= t is floor(t), so ``atom_locations`` refuses a
    radius with too many atoms before building any of them.
    """

    def __init__(self, p: float):
        p = _finite("integer power comb exponent p", p)
        if not p > 1.0:
            raise MeasureError(f"integer power comb needs p > 1, got {p}")
        from scipy.special import zeta
        z = float(zeta(p))
        self.p, self.zeta_p, self._zeta = p, z, zeta
        super().__init__(
            f"integer_power(p={p:g})",
            lambda n: (Atom(float(n), float(n) ** (-p) / z),),
            tail_mass_bound=lambda n: (max(n, 1) ** (1.0 - p) / (p - 1.0)) / z,
            location_floor=lambda n: float(n + 1),
            validate=False,  # closed forms make the unit total exact by construction
        )

    def _window_stats(self, lo, hi, include_lo, include_hi):
        a, b = np.ceil(lo), np.floor(hi)
        if not include_lo:
            a = np.where(a == lo, a + 1.0, a)
        if not include_hi:
            b = np.where(b == hi, b - 1.0, b)
        a = np.maximum(a, 1.0)
        empty = b < a

        def partial(s: float) -> np.ndarray:
            sums = self._zeta(s, a) - self._zeta(s, b + 1.0)
            return np.where(empty, 0.0, sums) / self.zeta_p

        return partial(self.p), partial(self.p - 1.0)

    def _tail(self, t):
        return self._zeta(self.p, np.floor(np.maximum(t, 0.0)) + 1.0) / self.zeta_p

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
    """Absolutely continuous measure given by a density.

    Built-in families pass ``stats_between(a, b) -> (masses, moments)``, their
    closed forms over arrays of windows with a < b inside the support, and
    ``tail_probability_fn(t)`` over arrays.  Any other density falls back to
    adaptive quadrature, one window at a time.
    """

    def __init__(
        self,
        family: str,
        pdf: Callable[[float], float],
        support: tuple[float, float] = (-math.inf, math.inf),
        *,
        stats_between: Optional[Callable[[np.ndarray, np.ndarray],
                                         tuple[np.ndarray, np.ndarray]]] = None,
        tail_probability_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        quadrature: QuadraturePolicy = QuadraturePolicy(),
        validate: bool = True,
    ):
        self.family = family
        self.pdf = pdf
        self.support = (float(support[0]), float(support[1]))
        self._stats_between = stats_between or self._quad_stats
        self._tail_probability_fn = tail_probability_fn
        self.quadrature = quadrature
        if validate and stats_between is None:
            total = float(self.window_stats(*self.support)[0])
            if abs(total - 1.0) > max(MASS_TOL, 100 * quadrature.abs_tol):
                raise MeasureError(f"{family}: density integrates to {total}, not 1")

    def _quad(self, f: Callable[[float], float], a: float, b: float) -> float:
        return checked_quad(f, a, b, self.quadrature, self.family)[0]

    def _quad_stats(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        def xpdf(x: float) -> float:
            return x * self.pdf(x)

        # Windows straddling 0 integrate their halves separately so that
        # symmetric windows cancel bitwise rather than through quadrature error.
        return np.array([
            (self._quad(self.pdf, a, b),
             self._quad(xpdf, a, 0.0) + self._quad(xpdf, 0.0, b) if a < 0.0 < b
             else self._quad(xpdf, a, b))
            for a, b in zip(lo.tolist(), hi.tolist())]).T

    def _window_stats(self, lo, hi, include_lo, include_hi):
        lo = np.maximum(lo, self.support[0])
        hi = np.minimum(hi, self.support[1])
        inside = lo < hi
        if inside.all():
            return self._stats_between(lo, hi)
        masses, moments = np.zeros(lo.shape), np.zeros(lo.shape)
        if inside.any():
            masses[inside], moments[inside] = self._stats_between(lo[inside], hi[inside])
        return masses, moments

    def _tail(self, t):
        if self._tail_probability_fn is not None:
            return self._tail_probability_fn(t)
        return super()._tail(t)


def gaussian(mu: float = 0.0, sigma: float = 1.0) -> DensityMeasure:
    """Normal distribution with closed-form window mass and moment."""
    mu, sigma = _finite("gaussian mu", mu), _finite("gaussian sigma", sigma)
    if not sigma > 0:
        raise MeasureError(f"gaussian needs sigma > 0, got {sigma}")
    from scipy.special import ndtr

    def pdf(x: float) -> float:
        z = (x - mu) / sigma
        return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))

    def _phi(z: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    def stats_between(a, b):
        za, zb = (a - mu) / sigma, (b - mu) / sigma
        mass = ndtr(zb) - ndtr(za)
        return mass, mu * mass - sigma * (_phi(zb) - _phi(za))

    def tail_probability(t):
        return np.where(t < 0, 1.0,
                        ndtr(-(t - mu) / sigma) + ndtr(-(t + mu) / sigma))

    m = DensityMeasure("gaussian", pdf,
                       stats_between=stats_between,
                       tail_probability_fn=tail_probability,
                       validate=False)
    m.mu, m.sigma = mu, sigma
    return m


def cauchy(loc: float = 0.0, scale: float = 1.0) -> DensityMeasure:
    """Cauchy distribution with closed-form window mass and moment."""
    loc, scale = _finite("cauchy loc", loc), _finite("cauchy scale", scale)
    if not scale > 0:
        raise MeasureError(f"cauchy needs scale > 0, got {scale}")

    def pdf(x: float) -> float:
        u = (x - loc) / scale
        return 1.0 / (math.pi * scale * (1.0 + u * u))

    def _log1p_sq(u: np.ndarray) -> np.ndarray:
        # log(1 + u^2), stable for huge |u|
        au = np.abs(u)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(au > 1.0, 2.0 * np.log(au) + np.log1p(au ** -2.0),
                            np.log1p(u * u))

    def stats_between(a, b):
        u = (np.concatenate([a, b]) - loc) / scale
        cdf, log1p_sq = 0.5 + np.arctan(u) / math.pi, _log1p_sq(u)
        n = len(a)
        mass = cdf[n:] - cdf[:n]
        even = (scale / (2 * math.pi)) * (log1p_sq[n:] - log1p_sq[:n])
        return mass, loc * mass + even

    def tail_probability(t):
        # P(X > t) + P(X < -t) via atan of reciprocals for precision at large t.
        def upper(u):
            with np.errstate(divide="ignore"):
                return np.where(u <= 1, 0.5 - np.arctan(u) / math.pi,
                                np.arctan(1.0 / u) / math.pi)
        return np.where(t < 0, 1.0, upper((t - loc) / scale) + upper((t + loc) / scale))

    m = DensityMeasure("cauchy", pdf,
                       stats_between=stats_between,
                       tail_probability_fn=tail_probability,
                       validate=False)
    m.loc, m.gamma = loc, scale  # "scale" would shadow Measure.scale()
    return m


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
    a, b = _finite("power_tail a", a), _finite("power_tail b", b)
    if not (1.0 < a < 2.0 and 1.0 < b < 2.0):
        raise MeasureError(f"power_tail exponents must lie in (1, 2), got a={a}, b={b}")
    from scipy.special import hyp2f1
    C, D = _power_tail_constant(a), _power_tail_constant(b)

    def pdf(x: float) -> float:
        if x >= 0:
            return 1.0 / (1.0 + C * x ** a)
        return 1.0 / (1.0 + D * (-x) ** b)

    def _halves(coef: float, e: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # int_0^X x^(m-1)/(1 + coef x^e) dx for X >= 0 and m = 1, 2
        h1, h2 = np.zeros(X.shape), np.zeros(X.shape)
        with np.errstate(divide="ignore"):
            log_x = np.log(X)
        log_z = math.log(coef) + e * log_x
        near = (X > 0.0) & (log_z < 230.0)  # coef * X^e representable; hyp2f1 is accurate
        far = (X > 0.0) & ~near
        Xn = X[near]
        z = -(coef * Xn ** e)
        h1[near] = Xn * hyp2f1(1.0, 1.0 / e, 1.0 / e + 1.0, z)
        h2[near] = (Xn ** 2.0 / 2.0) * hyp2f1(1.0, 2.0 / e, 2.0 / e + 1.0, z)
        # Asymptotic region: 1/(1 + coef x^e) = (coef x^e)^-1 + O(x^-2e).
        log_xf = log_x[far]
        full = coef ** (-1.0 / e) * (math.pi / e) / math.sin(math.pi / e)
        h1[far] = full - np.exp((1.0 - e) * log_xf - math.log(coef)) / (e - 1.0)
        const = -coef ** (-2.0 / e) * (math.pi / e) / math.sin(math.pi * (2.0 - e) / e)
        h2[far] = np.exp((2.0 - e) * log_xf - math.log(coef)) / (2.0 - e) + const
        return h1, h2

    def stats_between(lo, hi):
        # primitives of pdf and x * pdf anchored at 0, at both endpoints at once
        x = np.concatenate([lo, hi])
        pos1, pos2 = _halves(C, a, np.maximum(x, 0.0))
        neg1, neg2 = _halves(D, b, np.maximum(-x, 0.0))
        F, G = pos1 - neg1, pos2 + neg2
        n = len(lo)
        return F[n:] - F[:n], G[n:] - G[:n]

    def tail_probability(t):
        r = np.maximum(t, 0.0)
        return np.where(t <= 0, 1.0,
                        (0.5 - _halves(C, a, r)[0]) + (0.5 - _halves(D, b, r)[0]))

    m = DensityMeasure("power_tail", pdf,
                       stats_between=stats_between,
                       tail_probability_fn=tail_probability,
                       validate=False)
    m.a, m.b, m.C, m.D = a, b, C, D
    return m


# ---------------------------------------------------------------------------
# Empirical measures and the affine wrapper
# ---------------------------------------------------------------------------

class EmpiricalMeasure(Measure):
    """Equal-weight point masses on a finite sample."""

    is_atomic = True

    def __init__(self, samples: Sequence[float]):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise MeasureError("empirical measure needs a nonempty 1-d sample")
        if not np.all(np.isfinite(arr)):
            raise MeasureError("empirical samples must be finite")
        self.samples = np.sort(arr)
        self.family = "empirical"

    def _window_stats(self, lo, hi, include_lo, include_hi):
        counts, sums = _atom_window_sums(self.samples, self.samples[None], lo, hi,
                                         include_lo, include_hi)
        return counts / self.samples.size, sums[0] / self.samples.size

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        locs = self.samples[np.abs(self.samples) <= max_abs]
        return locs, np.full(locs.shape, 1.0 / self.samples.size)


class Affine(Measure):
    """Law of s * X + a when ``inner`` is the law of X (s finite and nonzero).

    Windows map back through the inverse map x = (y - a) / s; a negative s
    swaps the endpoints and their inclusion flags.
    """

    def __init__(self, inner: Measure, a: float = 0.0, s: float = 1.0):
        a, s = _finite("affine shift", a), _finite("scale factor", s)
        if s == 0.0:
            raise MeasureError("scale factor must be nonzero")
        self.inner, self.a, self.s = inner, a, s
        self.is_atomic = inner.is_atomic
        self.family = f"affine({getattr(inner, 'family', '?')}, a={a:g}, s={s:g})"
        if hasattr(inner, "pdf"):
            self.pdf = lambda x: inner.pdf((x - a) / s) / abs(s)
            ends = [s * v + a for v in getattr(inner, "support", (-math.inf, math.inf))]
            self.support = (min(ends), max(ends))

    def _window_stats(self, lo, hi, include_lo, include_hi):
        lo, hi = (lo - self.a) / self.s, (hi - self.a) / self.s
        if self.s < 0:
            lo, hi, include_lo, include_hi = hi, lo, include_hi, include_lo
        masses, moments = self.inner._window_stats(lo, hi, include_lo, include_hi)
        return masses, self.s * moments + self.a * masses

    def _tail(self, t):
        if self.a == 0.0:
            return self.inner._tail(t / abs(self.s))
        return super()._tail(t)

    def _inner_radius(self, max_abs: float) -> float:
        return (max_abs + abs(self.a)) / abs(self.s)

    def atom_arrays(self, max_abs, max_atoms=_MAX_ATOMS):
        x, w = self.inner.atom_arrays(self._inner_radius(max_abs), max_atoms)
        y = self.s * x + self.a
        keep = np.abs(y) <= max_abs
        y, w = y[keep], w[keep]
        return (y[::-1], w[::-1]) if self.s < 0 else (y, w)


# ---------------------------------------------------------------------------
# Family registry and JSON documents
# ---------------------------------------------------------------------------

COMB_FAMILIES: dict[str, Callable[..., AtomicComb]] = {
    "comb_ex1": comb_ex1,
    "comb_ex2": comb_ex2,
    "comb_ex4": comb_ex4,
    "comb_ex5": comb_ex5,
}

DENSITY_FAMILIES: dict[str, Callable[..., DensityMeasure]] = {
    "gaussian": gaussian,
    "cauchy": cauchy,
    "power_tail": power_tail,
}


def make_measure(family: str, **params) -> Measure:
    """Build a measure from a family name and keyword parameters."""
    if family in COMB_FAMILIES:
        if params:
            raise MeasureError(f"{family} takes no parameters, got {sorted(params)}")
        return COMB_FAMILIES[family]()
    if family in DENSITY_FAMILIES:
        return DENSITY_FAMILIES[family](**params)
    if family == "empirical":
        return EmpiricalMeasure(**params)
    raise MeasureError(f"unknown measure family {family!r}")


_DOC_KEYS = {
    "gaussian": {"mu", "sigma"},
    "cauchy": {"loc", "scale"},
    "power_tail": {"a", "b"},
    "comb_ex1": set(),
    "comb_ex2": set(),
    "comb_ex4": set(),
    "comb_ex5": set(),
    "empirical": {"samples"},
    "shift": {"a", "inner"},
    "scale": {"factor", "inner"},
    "negate": {"inner"},
}


def measure_from_document(doc: dict) -> Measure:
    """Parse a JSON measure object (strict keys; see the CLI documents)."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise MeasureError("measure object must be a dict with a 'family' key")
    family = doc["family"]
    if family not in _DOC_KEYS:
        raise MeasureError(f"unknown measure family {family!r}")
    extra = set(doc) - {"family"} - _DOC_KEYS[family]
    if extra:
        raise MeasureError(f"unknown keys for family {family!r}: {sorted(extra)}")
    params = {k: doc[k] for k in doc if k != "family"}
    if family == "shift":
        return measure_from_document(params.pop("inner")).shift(params.pop("a"))
    if family == "scale":
        return measure_from_document(params.pop("inner")).scale(params.pop("factor"))
    if family == "negate":
        return measure_from_document(params.pop("inner")).negate()
    return make_measure(family, **params)


def measure_document(family: str, **params) -> dict:
    """Canonical JSON-ready measure object."""
    return {"family": family, **params}
