"""Wrong answers the library gives today, one row each.

Each row asserts what theory says and is marked strict xfail, naming the
ROADMAP item expected to fix it, with ``raises`` set to the failure the
wrong answer produces, so an unrelated crash does not count.  A change that
fixes a row turns its xfail into a failing XPASS; it then drops the mark.
"""

import pytest

import meanlab as ml


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: growth like lam^(a-2) along the lambda "
                          "schedule is read as bounded oscillation")
def test_power_tail_exp_tilt_diverges():
    # power_tail(1.2, 1.9) has no mean; its right tail dominates, and the
    # regularized means grow like lam^(a - 2) (79.6, 93.0, 108.6 at the end)
    series = ml.multiplier_mean(ml.power_tail(1.2, 1.9), ml.ExpTiltMultiplier(0.0))
    assert series.verdict.kind == "diverges_plus"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a series still rising to its limit is "
                          "read as bounded oscillation")
def test_narrow_off_centre_cauchy_exp_tilt_converges():
    # about 100 e^(-100 lam): the means rise monotonically from 36.8 to 99.0
    series = ml.multiplier_mean(ml.cauchy(100.0, 1e-3), ml.ExpTiltMultiplier(0.0))
    assert series.verdict.kind == "converged"
    assert series.verdict.value == pytest.approx(100.0, rel=1e-3)
