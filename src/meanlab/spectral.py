"""Spectral probability measures of Hermitian observables.

Every function takes the observable as a square matrix and the state as a
vector (any array-like, converted to complex).  A matrix that is not square,
finite and Hermitian within HERM_TOL, or a state that is empty, not finite,
not of unit norm or not of the matrix's dimension, is refused with a
ValueError.

A Hermitian matrix A and a unit state vector psi induce a probability
measure on the real line: the weight of eigenvalue lam_i is the squared
overlap |<psi, v_i>|^2.  The quadratic-form mean <A psi, psi> equals the
first moment of that measure, and the variance ||(A - mu I) psi||^2 equals
its second central moment, so both can be cross-checked through two
independent computation paths.  induced_measure, pos_neg_split and
window_projection_probability reuse the eigh of the last matrix they decomposed
for a byte-identical one (about 0.5 MB held at n = 128); eigendecompose never.

The positive/negative square-root split A = E^2 - F^2 (E from positive
eigenvalues, F from negative ones, zero excluded from both) turns the mean
into ||E psi||^2 - ||F psi||^2.  In infinite dimensions the two terms can
diverge separately; the diagonal bridge realizes this with countable
diagonal operators whose induced measures feed the truncated-mean machinery,
alongside analytic domain flags decided by series comparison (partial sums
corroborate but never decide, since slowly divergent sums look convergent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .genmean import MeanLadder, TruncationSchedule, VerdictPolicy, mean_ladder
from .measures import AtomicComb, Measure, _finite_comb, _number, comb_ex2, integer_power_comb

__all__ = [
    "SpectralDecomposition",
    "DiagonalBridge",
    "BridgeReport",
    "eigendecompose",
    "induced_measure",
    "qm_mean",
    "qm_variance",
    "pos_neg_split",
    "window_projection_probability",
    "build_bridge",
    "bridge_analyze",
    "BRIDGE_FAMILIES",
    "EIG_TOL",
    "HERM_TOL",
]

EIG_TOL = 1e-12
HERM_TOL = 1e-12
_MERGE_SCALE = 1e-8
_LAST: tuple = (None, None)  # ((shape, bytes), read-only decomposition), rebound whole


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _as_matrix(A) -> np.ndarray:
    """A as a complex matrix, refused unless square, finite and equal to its
    conjugate transpose within HERM_TOL."""
    a = np.asarray(A, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"observable must be square, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("observable entries must be finite")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().T).max()) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def _as_pair(A, psi) -> tuple[np.ndarray, np.ndarray]:
    """(A, psi) with A as by _as_matrix and psi as a flat complex vector,
    refused unless nonempty, finite, of unit norm and of A's dimension."""
    mat, v = _as_matrix(A), np.asarray(psi, dtype=complex).reshape(-1)
    if v.size == 0 or not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError("state needs finite amplitudes")
    if abs(_norm(v) - 1.0) > 1e-12:
        raise ValueError(f"state norm is {_norm(v)!r}, not 1")
    if mat.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: {mat.shape[0]} vs {v.size}")
    return mat, v


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues (float64) with orthonormal eigenvectors
    (complex128) as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigendecompose(A) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition meeting the residual contract
    ||A v - lam v|| <= EIG_TOL-scale * ||A|| for every pair, always afresh."""
    return _decompose(_as_matrix(A))


def _decompose(mat: np.ndarray) -> SpectralDecomposition:
    """eigendecompose of a matrix that _as_matrix has already checked."""
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    scale = max(1.0, _norm(mat))
    residual = _norm(mat @ eigenvectors - eigenvectors * eigenvalues)
    if residual > 100 * EIG_TOL * scale * mat.shape[0]:
        raise ArithmeticError(f"eigendecomposition residual {residual:g} too large")
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _eigh(mat: np.ndarray) -> SpectralDecomposition:
    """_decompose(mat), shared with the last call on the same bytes (-0.0 is not 0.0)."""
    global _LAST
    key, (last_key, dec) = (mat.shape, mat.tobytes()), _LAST
    if key != last_key:
        dec = _decompose(mat)
        dec.eigenvalues.flags.writeable = dec.eigenvectors.flags.writeable = False
        _LAST = (key, dec)
    return dec


def induced_measure(A, psi) -> AtomicComb:
    """The spectral measure of A in state psi as a finite atomic comb.

    Weights are squared overlaps with the eigenvectors.  Ascending
    eigenvalues within 1e-8 * max(1, ||A||) of the first of their group
    merge into one atom at the group's weighted mean, so numerical
    degeneracy cannot split a spectral point; a weightless group gives none.
    """
    mat, v = _as_pair(A, psi)
    dec = _eigh(mat)
    weights = np.abs(dec.eigenvectors.conj().T @ v) ** 2
    merge_tol = _MERGE_SCALE * max(1.0, _norm(mat))
    lams = dec.eigenvalues
    starts, anchor = [], -math.inf
    for k, lam in enumerate(lams.tolist()):
        if lam - anchor > merge_tol:
            starts.append(k)
            anchor = lam
    # reduceat adds the rest of a segment to its first element, so a +0.0 put
    # before every group makes each group sum bitwise ndarray.sum of the
    # group, signed zeros included, as np.average takes it
    at = np.arange(len(starts)) + starts
    slots = np.ones(len(lams) + len(starts), dtype=bool)
    slots[at] = False
    floored = np.maximum(weights, 1e-300)
    padded = np.zeros((3, slots.size))
    padded[:, slots] = lams * floored, floored, weights
    moment, floor_mass, mass = np.add.reduceat(padded, at, axis=1)
    kept = mass > 0.0
    return _finite_comb((moment / floor_mass)[kept].tolist(), mass[kept].tolist(), "spectral")


def _qm_mean(mat: np.ndarray, v: np.ndarray) -> float:
    val = complex(np.vdot(v, mat @ v))  # vdot conjugates its first argument
    if abs(val.imag) > 1e-10 * max(1.0, _norm(mat)):
        raise ArithmeticError(f"quadratic form has imaginary part {val.imag:g}")
    return float(val.real)


def qm_mean(A, psi) -> float:
    """<A psi, psi>; the imaginary part must vanish and is asserted away."""
    return _qm_mean(*_as_pair(A, psi))


def qm_variance(A, psi) -> float:
    """||(A - mu I) psi||^2 with mu the quadratic-form mean."""
    mat, v = _as_pair(A, psi)
    resid = mat @ v - _qm_mean(mat, v) * v
    return float(np.real(np.vdot(resid, resid)))


def pos_neg_split(A) -> tuple[np.ndarray, np.ndarray]:
    """E = sum_{lam>0} sqrt(lam) v v*, F = sum_{lam<0} sqrt(-lam) v v*.

    Zero eigenvalues belong to neither factor; A = E^2 - F^2 holds anyway
    because they contribute nothing.
    """
    dec = _eigh(_as_matrix(A))
    V = dec.eigenvectors
    pos = np.where(dec.eigenvalues > 0.0, np.sqrt(np.maximum(dec.eigenvalues, 0.0)), 0.0)
    neg = np.where(dec.eigenvalues < 0.0, np.sqrt(np.maximum(-dec.eigenvalues, 0.0)), 0.0)
    E = (V * pos) @ V.conj().T
    F = (V * neg) @ V.conj().T
    return E, F


def window_projection_probability(A, psi, lo: float, hi: float) -> float:
    """||P_A([lo, hi]) psi||^2 computed from eigenprojections.

    Independent of the induced measure's window mass; the two must agree.
    """
    mat, v = _as_pair(A, psi)
    if not lo <= hi:
        raise ValueError(f"window requires lo <= hi, got [{lo}, {hi}]")
    dec = _eigh(mat)
    sel = (dec.eigenvalues >= lo) & (dec.eigenvalues <= hi)
    proj = dec.eigenvectors[:, sel].conj().T @ v
    return float(np.real(np.vdot(proj, proj)))


# ---------------------------------------------------------------------------
# Diagonal bridge to countable operators
# ---------------------------------------------------------------------------

@dataclass
class DiagonalBridge:
    """Countable diagonal operator given by eigenvalues lam_n and squared
    amplitudes w_n, with analytically decided domain flags.

    ``in_dom_a``: sum lam^2 w < inf (variance/operator domain);
    ``in_dom_e``: sum over positive lam of lam w < inf;
    ``in_dom_f``: sum over negative lam of |lam| w < inf.
    """

    family: str
    params: dict
    comb: Measure
    in_dom_a: bool
    in_dom_e: bool
    in_dom_f: bool
    analytic_mean: Optional[float] = None


def _bridge_dyadic_symmetric(**params) -> DiagonalBridge:
    if params:
        raise ValueError(f"dyadic_symmetric takes no parameters, got {sorted(params)}")
    # lam_n = +-2^n with w = 2^-(n+1): each one-sided sum of |lam| w adds 1/2
    # per level, and lam^2 w doubles per level; all three sums diverge.
    return DiagonalBridge(family="dyadic_symmetric", params={}, comb=comb_ex2(),
                          in_dom_a=False, in_dom_e=False, in_dom_f=False)


def _bridge_power_law(p: float = 4.0) -> DiagonalBridge:
    # lam_n = n with w_n = n^-p / zeta(p): sum lam w = zeta(p-1)/zeta(p)
    # converges iff p > 2, and sum lam^2 w converges iff p > 3.
    _number("power_law bridge p", p, gt=1)
    in_e = p > 2.0
    from scipy.special import zeta
    mean = float(zeta(p - 1.0) / zeta(p)) if in_e else None
    return DiagonalBridge(family="power_law_integer", params={"p": p},
                          comb=integer_power_comb(p),
                          in_dom_a=p > 3.0, in_dom_e=in_e, in_dom_f=True,
                          analytic_mean=mean)


BRIDGE_FAMILIES = {
    "dyadic_symmetric": _bridge_dyadic_symmetric,
    "power_law_integer": _bridge_power_law,
}


def build_bridge(family: str, **params) -> DiagonalBridge:
    if not isinstance(family, str) or family not in BRIDGE_FAMILIES:
        raise ValueError(f"unknown bridge family {family!r}; "
                         f"known: {sorted(BRIDGE_FAMILIES)}")
    return BRIDGE_FAMILIES[family](**params)


@dataclass
class BridgeReport:
    """Domain flags coupled with the truncated-mean ladder of the induced comb."""

    bridge: DiagonalBridge
    ladder: MeanLadder
    partial_sums: dict[str, float]

    def __post_init__(self):
        if self.bridge.in_dom_e and self.bridge.in_dom_f:
            if self.ladder.ordinary_kind != "finite":
                raise ArithmeticError(
                    "bridge inconsistency: psi lies in dom E and dom F but the "
                    f"ladder reports ordinary mean {self.ladder.ordinary_kind}")

    @property
    def mean_exists(self) -> bool:
        return self.bridge.in_dom_e and self.bridge.in_dom_f

    @property
    def variance_exists(self) -> bool:
        return self.bridge.in_dom_a


def bridge_analyze(bridge: DiagonalBridge,
                   schedule: TruncationSchedule = TruncationSchedule(),
                   policy: VerdictPolicy = VerdictPolicy()) -> BridgeReport:
    """Couple the analytic domain flags with the ladder of the induced comb.

    Partial sums of |lam| w and lam^2 w up to the schedule horizon are
    reported as corroborating evidence only; the flags are analytic.
    """
    comb = bridge.comb
    horizon = min(schedule.horizon, 1e6)
    _, (pos, neg) = comb.window_stats([0.0, -horizon], [horizon, 0.0])
    sums = {"pos_abs_moment": float(pos), "neg_abs_moment": -float(neg)}
    ladder = mean_ladder(comb, schedule, policy)
    return BridgeReport(bridge=bridge, ladder=ladder, partial_sums=sums)
