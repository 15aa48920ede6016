"""The batched window kernel against exact sums over enumerated atoms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanlab as ml
from meanlab.measures import Affine

# Each family with the radius its windows are drawn from.  The integer power
# comb stays small because the reference enumerates one atom per integer.
FAMILIES = {
    "comb_ex1": (ml.comb_ex1, 1e12),
    "comb_ex2": (ml.comb_ex2, 1e12),
    "comb_ex4": (ml.comb_ex4, 1e12),
    "comb_ex5": (ml.comb_ex5, 1e12),
    "integer_power": (lambda: ml.integer_power_comb(2.5), 300.0),
    # rounded normal samples: repeated locations exercise the endpoint flags
    "empirical": (lambda: ml.EmpiricalMeasure(
        np.round(np.random.default_rng(3).standard_normal(300) * 50.0, 1)), 200.0),
}


def _build(name: str, affine: bool):
    """(measure, radius, atoms within the radius) for one family."""
    factory, radius = FAMILIES[name]
    m = factory()
    if isinstance(m, ml.IntegerPowerComb):
        # its tail bound cannot certify any radius, so enumerate blocks directly
        atoms = [a for n in range(1, int(radius) + 1) for a in m._block(n)]
    else:
        atoms = m.atoms_within(radius)
    if not affine:
        return m, radius, atoms
    # s = -2 maps atoms and endpoints exactly, so an endpoint placed on a
    # mapped atom is still on that atom after the kernel maps it back.
    return (Affine(m, 0.0, -2.0), 2.0 * radius,
            [ml.Atom(-2.0 * a.location, a.weight) for a in atoms])


def _inside(x, lo, hi, include_lo, include_hi):
    return ((lo < x or (include_lo and x == lo))
            and (x < hi or (include_hi and x == hi)))


@st.composite
def _windows(draw, locations, radius):
    def endpoint():
        if locations and draw(st.booleans()):
            return draw(st.sampled_from(locations))
        return draw(st.floats(-radius, radius, allow_nan=False))

    count = draw(st.integers(1, 5))
    return [sorted((endpoint(), endpoint())) for _ in range(count)]


@given(data=st.data(), name=st.sampled_from(sorted(FAMILIES)), affine=st.booleans(),
       include_lo=st.booleans(), include_hi=st.booleans())
@settings(max_examples=300, deadline=None)
def test_window_stats_matches_fsum_over_atoms(data, name, affine, include_lo, include_hi):
    m, radius, atoms = _build(name, affine)
    locations = sorted({a.location for a in atoms})
    windows = data.draw(_windows(locations, radius))
    lo, hi = np.array(windows).T
    masses, moments = m.window_stats(lo, hi, include_lo, include_hi)
    # Disjoint windows in one batch cannot all contain the anchor; their
    # error is then relative to the atoms between the anchor and the window.
    scale = math.fsum(abs(a.weight * a.location) for a in atoms
                      if lo.min() <= a.location <= hi.max())
    for i in range(len(windows)):
        inside = [a for a in atoms if _inside(a.location, lo[i], hi[i], include_lo, include_hi)]
        assert masses[i] == pytest.approx(math.fsum(a.weight for a in inside), abs=1e-12)
        assert moments[i] == pytest.approx(
            math.fsum(a.weight * a.location for a in inside), abs=1e-12 * scale + 1e-15)


def test_batch_matches_single_windows():
    m = ml.comb_ex5().scale(-3.0).shift(2.0)
    lo = np.array([-50.0, -1e6, 7.0, 3.0])
    hi = np.array([60.0, 1e6, 7.0, 1e9])
    masses, moments = m.window_stats(lo, hi)
    for i in range(len(lo)):
        assert masses[i] == pytest.approx(m.window_stats(lo[i], hi[i])[0], abs=1e-15)
        assert moments[i] == pytest.approx(m.window_stats(lo[i], hi[i])[1],
                                           rel=1e-12, abs=1e-12)


def test_comb_ex4_dips_near_the_horizon_stay_at_minus_one_third():
    # At c = -4 the windows reach atoms near 3^23 whose moments are ~1e10;
    # sums anchored at the center keep the dips at -1/3 to 1e-9.
    series = ml.limit_scan(ml.comb_ex4(), -4.0)
    dips = series.values[-24:][series.values[-24:] < 0]
    assert len(dips) >= 4
    assert np.all(np.abs(dips + 1.0 / 3.0) <= 1e-9)


def test_comb_ex1_partial_means_stay_exactly_zero_or_minus_one():
    series = ml.limit_scan(ml.comb_ex1(), 0.0)
    assert set(series.values.tolist()) == {0.0, -1.0}
    assert set(ml.limit_scan(ml.comb_ex1().negate(), 0.0).values.tolist()) == {0.0, 1.0}


def test_dense_comb_declares_its_atom_count():
    m = ml.integer_power_comb(3.0)
    np.testing.assert_array_equal(m.atom_locations(4.5), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ml.MeasureError):
        m.atom_locations(2.7e10, max_atoms=50_000)
    assert m.atoms_within(0.0) == []  # nothing was enumerated for the refusal


def test_window_stats_shapes_and_order_check():
    m = ml.cauchy()
    masses, moments = m.window_stats(-np.ones((2, 3)), 1.0)
    assert masses.shape == moments.shape == (2, 3)
    assert np.allclose(masses, 0.5)
    with pytest.raises(ml.MeasureError):
        m.window_stats([0.0, 2.0], [1.0, 1.0])
