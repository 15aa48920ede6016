"""The verdict rules of ``genmean``: pinned bitwise, and mirrored under X -> -X.

The five-case taxonomy is symmetric under negation: a downward divergence or
unbounded oscillation of a series is the upward one of the negated series,
and on a center grid case V mirrors IV and III_minus_inf mirrors
III_plus_inf.  These tests pin every one-row ``_classify_rows`` verdict on a
seeded set of series, and every ``classify_taxonomy`` report over all assignments
of six stub verdicts to a five-point grid, as sha256 digests of their reprs;
they check the mirror symmetry of the series rules directly; and they reach
each diagnostic of ``classify_taxonomy`` through stubbed per-center verdicts.
"""

import hashlib
import itertools
import types

import numpy as np
import pytest

import meanlab as ml
from meanlab import genmean
from meanlab.genmean import _classify_rows

MODES = (None, "increasing", "decreasing")
WINDOWS = (1, 3, 8)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _series(rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """(W, values): a series of length 2W..4W+2 of a random shape and scale.

    The shapes reach every verdict kind: flat tails with small noise, ramps,
    one-sided swings that grow on one side only, alternations, random walks
    and signed zeros.  Values are sometimes rounded, for ties at the
    tolerance, and sometimes given a special entry from ``SPECIALS``.
    """
    W = int(rng.choice(WINDOWS))
    n = int(rng.integers(2 * W, 4 * W + 3))
    k = np.arange(n, dtype=float)
    scale = 10.0 ** rng.integers(-3, 8)
    sign = rng.choice((-1.0, 1.0))
    offset = rng.choice((-1.0, 0.0, 1.0)) * scale * rng.random()
    shape = rng.integers(6)
    if shape == 0:
        v = offset + scale * 10.0 ** rng.integers(-9, -3) * rng.standard_normal(n)
    elif shape == 1:
        v = offset + sign * scale * (k + 1.0) ** rng.choice((0.5, 1.0, 2.0))
    elif shape == 2:
        v = offset + sign * scale * (k + 1.0) * (k % 2)
    elif shape == 3:
        v = offset + scale * (-1.0) ** k * (1.0 + rng.choice((0.0, 0.1, 1.0)) * k)
    elif shape == 4:
        v = offset + scale * np.cumsum(rng.standard_normal(n))
    else:
        v = rng.choice((0.0, -0.0), n)
    if rng.random() < 0.3:
        v = np.round(v, int(rng.integers(-2, 3)))
    if rng.random() < 0.3:
        v[rng.integers(n, size=int(rng.integers(1, 3)))] = rng.choice(SPECIALS)
    return W, v


def _drawn_series(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [_series(rng) for _ in range(count)]


def _verdicts(series):
    for W, v in series:
        policy = ml.VerdictPolicy(window=W)
        for mode in MODES:
            yield _classify_rows([v], policy, float(len(v)), [mode])[0]


# sha256 over the newline-joined reprs of the 9,000 verdicts below, recorded
# from the rules that wrote each downward verdict out separately.
VERDICTS_SHA256 = "17859b39d0c3f4852f7a4649fded1a8ec15987f43e0265ee239eff048fafa073"


def test_series_verdicts_are_bitwise_unchanged():
    verdicts = list(_verdicts(_drawn_series(3000, seed=19)))
    kinds = {v.kind for v in verdicts}
    assert kinds == {genmean.CONVERGED, genmean.DIVERGES_PLUS, genmean.DIVERGES_MINUS,
                     genmean.OSC_BOUNDED, genmean.OSC_UNBOUNDED_ABOVE,
                     genmean.OSC_UNBOUNDED_BELOW, genmean.UNDETERMINED}
    text = "\n".join(map(repr, verdicts))
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICTS_SHA256


def test_rows_classified_together_get_their_one_row_verdicts():
    # mixed groups: lengths 2W..4W+2, NaN, +-inf and signed-zero rows together
    rng = np.random.default_rng(29)
    by_window = {}
    for W, v in _drawn_series(3000, seed=19):
        by_window.setdefault(W, []).append(v)
    for W, rows in by_window.items():
        policy = ml.VerdictPolicy(window=W)
        modes = [MODES[k] for k in rng.integers(len(MODES), size=len(rows))]
        start = 0
        while start < len(rows):
            stop = start + int(rng.integers(1, 40))
            group, group_modes = rows[start:stop], modes[start:stop]
            got = genmean._classify_rows(group, policy, 7.0, group_modes)
            assert [repr(v) for v in got] == [
                repr(_classify_rows([v], policy, 7.0, [mode])[0])
                for v, mode in zip(group, group_modes)]
            start = stop


_MIRROR = {genmean.DIVERGES_PLUS: genmean.DIVERGES_MINUS,
           genmean.OSC_UNBOUNDED_ABOVE: genmean.OSC_UNBOUNDED_BELOW,
           "increasing": "decreasing"}
_MIRROR.update({v: k for k, v in _MIRROR.items()})


def _negated(x):
    return None if x is None else -x


def test_negated_series_gets_the_mirrored_verdict():
    # ±0.0 compare equal here: the median of a signed-zero pair is +0.0 either way
    for W, v in _drawn_series(1000, seed=23):
        policy = ml.VerdictPolicy(window=W)
        for mode in MODES:
            got, = _classify_rows([-v], policy, monotone=[_MIRROR.get(mode, mode)])
            want, = _classify_rows([v], policy, monotone=[mode])
            assert got.kind == _MIRROR.get(want.kind, want.kind), (v, mode)
            assert (got.value, got.liminf_est, got.limsup_est) == (
                _negated(want.value), _negated(want.limsup_est), _negated(want.liminf_est))
            assert (got.spread, got.conv_tol) == (want.spread, want.conv_tol)


# ---------------------------------------------------------------------------
# classify_taxonomy on stubbed per-center verdicts
# ---------------------------------------------------------------------------

GRID = (-2.0, -1.0, 0.0, 1.0, 3.0)
_OSCILLATIONS = (genmean.OSC_BOUNDED, genmean.OSC_UNBOUNDED_ABOVE, genmean.OSC_UNBOUNDED_BELOW)


def _stub(kind: str, i: int) -> ml.LimitVerdict:
    """The stub verdict of a kind at the i-th center: two disagreeing finite
    limits, the two divergences, an oscillation (its variant cycling with i)
    and undetermined."""
    if kind == "converged":
        return ml.LimitVerdict(genmean.CONVERGED, value=1.0 + i * 1e-7, conv_tol=1e-6)
    if kind == "converged_far":
        return ml.LimitVerdict(genmean.CONVERGED, value=3.0, conv_tol=1e-6)
    if kind == "oscillates":
        return ml.LimitVerdict(_OSCILLATIONS[i % 3])
    return ml.LimitVerdict(kind)


STUB_KINDS = ("converged", "converged_far", genmean.DIVERGES_PLUS, genmean.DIVERGES_MINUS,
              "oscillates", genmean.UNDETERMINED)


@pytest.fixture
def stubbed_centers(monkeypatch):
    """classify_taxonomy reads the verdict at each center from the returned
    dict, which the test fills; no scan runs, and each stub series holds its
    center in place of its values."""
    table = {}
    monkeypatch.setattr(genmean, "_scan", lambda measure, rows, *args: [
        types.SimpleNamespace(values=c) for c, _ in rows])
    monkeypatch.setattr(genmean, "_classify_rows",
                        lambda rows, *args: [table[c] for c in rows])
    return table


def _report(table, kinds):
    table.clear()
    table.update({c: _stub(kind, i) for i, (c, kind) in enumerate(zip(GRID, kinds))})
    report = ml.classify_taxonomy(None, GRID)
    return (report.case, report.c_star, report.c_threshold, report.threshold_uncertainty,
            report.common_value, report.diagnostics)


# sha256 over the newline-joined reprs of the 6^5 reports below, recorded from
# the rules that wrote III_minus_inf and V out separately.
REPORTS_SHA256 = "dc2bc93eb9d3ef72fe09b3035f0f2fd83f040a938ab8018d1efd1b48d30097da"


def test_taxonomy_reports_are_bitwise_unchanged(stubbed_centers):
    reports = [_report(stubbed_centers, kinds)
               for kinds in itertools.product(STUB_KINDS, repeat=len(GRID))]
    assert {r[0] for r in reports} == {"I", "II", "III_finite", "III_plus_inf",
                                      "III_minus_inf", "IV", "V", "Undetermined"}
    text = "\n".join(map(repr, reports))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256


@pytest.mark.parametrize("kinds, diagnostic", [
    (("converged",) * 4 + ("converged_far",),
     "finite limits at all centers disagree beyond 2e-06: spread 2"),
    ((genmean.DIVERGES_PLUS,) + ("oscillates",) * 4,
     "divergent-up centers are not an upper tail of the grid"),
    (("oscillates",) * 4 + (genmean.DIVERGES_MINUS,),
     "divergent-down centers are not a lower tail of the grid"),
    ((genmean.DIVERGES_MINUS,) + ("oscillates",) * 3 + (genmean.DIVERGES_PLUS,),
     "verdict mix outside the taxonomy: div+=[3.0], div-=[-2.0], osc=[-1.0, 0.0, 1.0]"),
], ids=["finite-disagree", "not-upper-tail", "not-lower-tail", "outside-taxonomy"])
def test_taxonomy_diagnostic_branches(stubbed_centers, kinds, diagnostic):
    assert _report(stubbed_centers, kinds) == ("Undetermined", None, None, None, None,
                                               [diagnostic])


@pytest.mark.parametrize("kinds, case, threshold, uncertainty", [
    (("oscillates",) * 3 + (genmean.DIVERGES_PLUS,) * 2, "IV", 0.5, 0.5),
    (("oscillates",) * 4 + (genmean.DIVERGES_PLUS,), "IV", 2.0, 1.0),
    ((genmean.DIVERGES_MINUS,) * 2 + ("oscillates",) * 3, "V", -0.5, 0.5),
    ((genmean.DIVERGES_MINUS,) + ("oscillates",) * 4, "V", -1.5, 0.5),
])
def test_taxonomy_threshold_between_the_last_oscillating_and_first_divergent_center(
        stubbed_centers, kinds, case, threshold, uncertainty):
    assert _report(stubbed_centers, kinds) == (case, None, threshold, uncertainty, None, [])
