"""``measures._median`` is ``np.median`` bit for bit.

The verdict rules read the median of the last W partial means, the taxonomy
reads the median of the per-center limits, and atomic window sums anchor at
the median window center.  ``_median`` replaces ``np.median`` there so that no
library path loads numpy.ma (``np.median`` imports it for its NaN check), and
every verdict value it produces must stay exactly what numpy gave.
"""

import numpy as np
import pytest

from meanlab.measures import _median

ARRAYS = 100_000
MAX_LENGTH = 20


def _random_rows(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of MAX_LENGTH finite floats and a length 1..MAX_LENGTH
    for each; every entry is a signed zero, a rounded integer (which may be
    -0.0 too), a magnitude between 1e-300 and 1e300, or one beyond 1e300, so
    that the sum of two middle values overflows."""
    shape = (count, MAX_LENGTH)
    sign = rng.choice([-1.0, 1.0], shape)
    kinds = [sign * 0.0,
             np.round(rng.normal(0.0, 3.0, shape)),
             sign * 10.0 ** rng.uniform(-300.0, 300.0, shape),
             sign * rng.uniform(1e300, np.finfo(float).max, shape)]
    rows = np.choose(rng.integers(0, len(kinds), shape), kinds)
    return rows, rng.integers(1, MAX_LENGTH + 1, count)


def _mismatches(rows, lengths) -> list:
    bad = []
    with np.errstate(all="ignore"):  # np.median warns where the middle sum overflows
        for row, n in zip(rows, lengths):
            x = row[:n]
            if repr(_median(x)) != repr(float(np.median(x))):
                bad.append(x.tolist())
    return bad


def test_median_matches_numpy_bitwise_on_random_finite_arrays():
    rows, lengths = _random_rows(np.random.default_rng(20261019), ARRAYS)
    assert np.isfinite(rows).all()
    assert (np.signbit(rows) & (rows == 0.0)).any()  # the data holds -0.0
    bad = _mismatches(rows, lengths)
    assert not bad, f"{len(bad)} arrays differ, first {bad[0]}"


def test_median_of_rows_with_nan_is_nan_as_numpy_gives():
    rng = np.random.default_rng(7)
    rows, lengths = _random_rows(rng, 2_000)
    rows[np.arange(len(rows)), rng.integers(0, lengths)] = np.nan
    assert not _mismatches(rows, lengths)
    assert all(np.isnan(_median(row[:n])) for row, n in zip(rows[:50], lengths[:50]))


@pytest.mark.parametrize("values,expected", [
    ([-0.0], "0.0"),                     # the middle is summed from +0.0
    ([-0.0, -0.0], "0.0"),
    ([3.0, -0.0, -2.0, -0.0], "0.0"),
    ([1e308, 1.5e308], "inf"),           # the middle sum overflows, as in numpy
    ([2.0, 1.0, 4.0, 3.0], "2.5"),
    ([5.0, np.nan, 1.0], "nan"),
])
def test_median_edge_cases(values, expected):
    with np.errstate(all="ignore"):
        assert repr(_median(np.array(values))) == repr(float(np.median(values))) == expected
