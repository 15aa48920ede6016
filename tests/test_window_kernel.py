"""The batched window kernel against exact sums over enumerated atoms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanlab as ml
from meanlab import measures
from meanlab.measures import Affine

# Each family with the radius its windows are drawn from.  The integer power
# comb stays small because the reference enumerates one atom per integer.
FAMILIES = {
    "comb_ex1": (ml.comb_ex1, 1e12),
    "comb_ex2": (ml.comb_ex2, 1e12),
    "comb_ex4": (ml.comb_ex4, 1e12),
    "comb_ex5": (ml.comb_ex5, 1e12),
    "integer_power": (lambda: ml.integer_power_comb(2.5), 300.0),
    # rounded normal samples: repeated locations sit on closed endpoints
    "empirical": (lambda: ml.EmpiricalMeasure(
        np.round(np.random.default_rng(3).standard_normal(300) * 50.0, 1)), 200.0),
}


def _build(name: str, affine: bool):
    """(measure, radius, atoms within the radius) for one family."""
    factory, radius = FAMILIES[name]
    m = factory()
    atoms = m.atoms_within(radius)
    if not affine:
        return m, radius, atoms
    # s = -2 maps atoms and endpoints exactly, so an endpoint placed on a
    # mapped atom is still on that atom after the kernel maps it back.
    return (Affine(m, 0.0, -2.0), 2.0 * radius,
            [ml.Atom(-2.0 * a.location, a.weight) for a in atoms])


@st.composite
def _windows(draw, locations, radius):
    def endpoint():
        if locations and draw(st.booleans()):
            return draw(st.sampled_from(locations))
        return draw(st.floats(-radius, radius, allow_nan=False))

    count = draw(st.integers(1, 5))
    return [sorted((endpoint(), endpoint())) for _ in range(count)]


@given(data=st.data(), name=st.sampled_from(sorted(FAMILIES)), affine=st.booleans())
@settings(max_examples=300, deadline=None)
def test_window_stats_matches_fsum_over_atoms(data, name, affine):
    m, radius, atoms = _build(name, affine)
    locations = sorted({a.location for a in atoms})
    windows = data.draw(_windows(locations, radius))
    lo, hi = np.array(windows).T
    masses, moments = m.window_stats(lo, hi)
    # Disjoint windows in one batch cannot all contain the anchor; their
    # error is then relative to the atoms between the anchor and the window.
    scale = math.fsum(abs(a.weight * a.location) for a in atoms
                      if lo.min() <= a.location <= hi.max())
    for i in range(len(windows)):
        inside = [a for a in atoms if lo[i] <= a.location <= hi[i]]
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
    np.testing.assert_array_equal(m.atom_arrays(4.5)[0], [1.0, 2.0, 3.0, 4.0])
    tracemalloc.start()
    try:
        with pytest.raises(ml.MeasureError, match="more than 50000 atoms"):
            m.atom_arrays(2.7e10, max_atoms=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000  # refused from the count: 50,000 atoms would take 400 kB


def test_dense_comb_atoms_within_is_its_atom_arrays():
    m = ml.integer_power_comb(2.5)
    locs, weights = m.atom_arrays(10)
    assert len(locs) == 10
    assert m.atoms_within(10) == [ml.Atom(x, w) for x, w in zip(locs, weights)]


def test_comb_validation_fills_the_enumeration_the_windows_use(atom_builds):
    m = ml.comb_ex4()
    built = atom_builds["atoms"]
    blocks = []
    block = m._block
    m._block = lambda n: blocks.append(n) or block(n)
    ml.classify_taxonomy(m)
    ml.mean_ladder(m)
    ml.tail_mass_curve(m)
    assert blocks == []
    assert atom_builds["atoms"] == built == 106  # 53 blocks of two atoms, each built once


@pytest.mark.parametrize("build", [ml.comb_ex1, ml.comb_ex2, ml.comb_ex4, ml.comb_ex5])
def test_comb_sampler_extends_the_one_enumeration(atom_builds, build):
    m = build()
    radii = ml.TruncationSchedule().radii()
    lo = np.concatenate([-radii, 1.0 - radii, np.zeros_like(radii)])
    hi = np.concatenate([radii, 1.0 + radii, radii])
    before = m.window_stats(lo, hi)
    built = atom_builds["atoms"]
    ml.build_sampler(m, seed=0)
    after = m.window_stats(lo, hi)
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]
    if build is ml.comb_ex4:  # the sampler adds blocks 54..69 only
        assert (built, atom_builds["atoms"]) == (106, 138)


def test_overflow_refusal_leaves_the_cached_enumeration_as_it_was():
    # comb_ex4's locations 3^n overflow near block 646; the refusal used to
    # keep all 1,290 atoms and 646 block ends
    m = ml.comb_ex4()
    cached = (m._sorted[0].size, m._enumerated[0].size, len(m._ends))
    with pytest.raises(ml.MeasureError, match="radius inf"):
        m.atoms_within(math.inf)
    assert cached == (m._sorted[0].size, m._enumerated[0].size, len(m._ends)) == (106, 106, 54)
    radii = ml.TruncationSchedule().radii()
    assert m.window_stats(-radii, radii)[1].tobytes() == \
        ml.comb_ex4().window_stats(-radii, radii)[1].tobytes()


def test_atom_cap_refusal_keeps_the_atoms_it_built():
    m = ml.comb_ex2()
    assert (m._sorted[0].size, len(m._ends)) == (62, 32)
    with pytest.raises(ml.MeasureError, match="more than 68 atoms"):
        m.atom_arrays(1e30, max_atoms=68)
    assert (m._sorted[0].size, len(m._ends)) == (70, 36)  # four more blocks of two


def test_comb_enumeration_resumes_at_a_block_that_raised():
    calls, armed = [], []

    def block(n):
        calls.append(n)
        if n == 33 and armed:
            armed.clear()
            raise ml.MeasureError("transient")
        w = 2.0 ** -(n + 1)
        return (2.0 ** n, -(2.0 ** n)), (w, w)

    # construction enumerates blocks 1..31; the failure is armed after it
    m = ml.AtomicComb("ex2", block, tail_mass_bound=lambda n: 2.0 ** -n,
                      location_floor=lambda n: 2.0 ** (n + 1))
    assert calls == list(range(1, 32))
    armed.append(True)
    with pytest.raises(ml.MeasureError, match="transient"):
        m.atom_arrays(2.0 ** 34)
    locs = m.atom_arrays(2.0 ** 34)[0]
    assert calls[31:] == [32, 33, 33, 34]  # block 32 was kept, 33 is tried again
    powers = 2.0 ** np.arange(1, 35)
    np.testing.assert_array_equal(locs, np.concatenate([-powers[::-1], powers]))


@pytest.mark.parametrize("build", [
    ml.comb_ex1, ml.comb_ex2, ml.comb_ex4, ml.comb_ex5,
    lambda: ml.comb_ex1().negate(), lambda: ml.comb_ex4().scale(-2.0).shift(5.0),
    lambda: ml.integer_power_comb(2.5),
    lambda: ml.finite_comb([ml.Atom(3.0, 0.5), ml.Atom(-1.0, 0.25), ml.Atom(2.0, 0.25)]),
    lambda: ml.EmpiricalMeasure([4.0, -3.0, 4.0, 0.5]),
    lambda: ml.induced_measure([[1.0, 2.0], [2.0, -3.0]], [0.6, 0.8]),
])
def test_atoms_within_is_sorted_by_location(build):
    locs = [a.location for a in build().atoms_within(1000.0)]
    assert locs and locs == sorted(locs)


def test_window_stats_shapes_and_order_check():
    m = ml.cauchy()
    masses, moments = m.window_stats(-np.ones((2, 3)), 1.0)
    assert masses.shape == moments.shape == (2, 3)
    assert np.allclose(masses, 0.5)
    with pytest.raises(ml.MeasureError):
        m.window_stats([0.0, 2.0], [1.0, 1.0])


# Windows with infinite ends on atomic measures: the cumulative sums' anchor
# is -inf + inf there, which must resolve without a RuntimeWarning (the
# suite turns warnings into errors).

def test_infinite_radius_tail_of_a_finite_spectral_measure_is_zero():
    measure = ml.induced_measure(np.diag([1.0, 2.0]), [0.6, 0.8])
    assert measure.tail_probability(math.inf) == 0.0


def test_whole_line_window_on_an_empirical_measure():
    masses, moments = ml.EmpiricalMeasure([1.0, 2.0]).window_stats(-math.inf, math.inf)
    assert (float(masses), float(moments)) == (1.0, 1.5)


def test_disjoint_windows_with_infinite_ends():
    m = ml.EmpiricalMeasure([1.0, 2.0, 5.0])
    masses, moments = m.window_stats([-math.inf, 3.0], [0.5, math.inf])
    assert masses.tolist() == [0.0, 1.0 / 3.0]
    assert moments.tolist() == [0.0, 5.0 / 3.0]


# ---------------------------------------------------------------------------
# The integer power comb's zeta closed form and the per-row anchors
# ---------------------------------------------------------------------------

def _zeta_windows(m, lo, hi):
    """(masses, moments) as zeta(s, a) - zeta(s, b + 1) at every endpoint."""
    from scipy.special import zeta
    a, b = np.maximum(np.ceil(lo), 1.0), np.floor(hi)
    empty = b < a
    return tuple(np.where(empty, 0.0, zeta(s, a) - zeta(s, b + 1.0)) / m.zeta_p
                 for s in (m.p, m.p - 1.0))


def _dense_comb_windows(rng, shape):
    """Windows over the integer comb's whole range: integer and fractional
    ends, empty windows between integers, lo < 1, hi up to 1e15 and +-inf."""
    pool = np.concatenate([np.arange(-3.0, 40.0), rng.uniform(-5.0, 60.0, 40),
                           np.floor(10.0 ** rng.uniform(0.0, 15.0, 30)),
                           10.0 ** rng.uniform(0.0, 15.0, 30), [1e15, -math.inf, math.inf]])
    ends = np.sort(rng.choice(pool, (2, *shape)), axis=0)
    lo, hi = ends
    gap = rng.random(shape) < 0.15  # [k + 0.2, k + 0.7] holds no integer
    lo[gap], hi[gap] = np.floor(lo[gap]) + 0.2, np.floor(lo[gap]) + 0.7
    edges = [(-math.inf, math.inf), (-math.inf, 2.5), (0.5, math.inf),
             (-math.inf, -math.inf), (math.inf, math.inf), (3.0, 1e15)]
    lo.reshape(-1)[:len(edges)], hi.reshape(-1)[:len(edges)] = np.array(edges).T
    return lo, hi


@pytest.mark.parametrize("shape", [(40,), (6, 30)], ids=["1d", "rows"])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.3, 6.0])
def test_integer_power_windows_are_bitwise_the_zeta_difference(p, shape):
    m = ml.integer_power_comb(p)
    rng = np.random.default_rng([int(10 * p), len(shape)])
    for _ in range(5):
        lo, hi = _dense_comb_windows(rng, shape)
        assert (np.floor(hi) < np.maximum(np.ceil(lo), 1.0)).any()
        # at p <= 2 scipy's zeta of the moment's order p - 1 is NaN or inf
        # (ROADMAP item 4), so NaNs are compared by position
        with np.errstate(all="ignore"):
            got, want = m.window_stats(lo, hi), _zeta_windows(m, lo, hi)
        for g, w in zip(got, want):
            assert g.shape == w.shape == shape
            nan = np.isnan(w)
            assert (np.isnan(g) == nan).all()
            assert g[~nan].tobytes() == w[~nan].tobytes()


def _anchors_reference(lo, hi):
    """The anchors before np.nan_to_num and after it."""
    raw = []
    for row_lo, row_hi in zip(lo, hi):
        a, b = row_lo.max(), row_hi.min()
        if a <= b:
            raw.append(0.5 * a + 0.5 * b)
        else:
            raw.append(float(np.median(0.5 * row_lo + 0.5 * row_hi)))
    raw = np.array(raw)
    return raw, np.nan_to_num(raw, nan=0.0)


def test_anchors_are_the_nan_to_num_form():
    rng = np.random.default_rng(17)
    pool = np.array([-math.inf, math.inf, -0.0, 0.0, -1e308, 1e308, -2.5, 1.0, 3.75, 1e15])
    seen = {"nan": 0, "inf": 0, "-0.0": 0, "apart": 0}
    for _ in range(400):
        rows, width = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        pick = rng.random((2, rows, width)) < 0.5
        ends = np.where(pick, rng.choice(pool, (2, rows, width)),
                        rng.normal(0.0, 10.0, (2, rows, width)))
        lo, hi = np.sort(ends, axis=0)
        with np.errstate(invalid="ignore"):
            raw, want = _anchors_reference(lo, hi)
            got = measures._anchors(lo, hi)
        assert got.dtype == want.dtype and repr(got.tolist()) == repr(want.tolist())
        seen["nan"] += int(np.isnan(raw).sum())
        seen["inf"] += int(np.isinf(raw).sum())
        seen["-0.0"] += sum(repr(x) == "-0.0" for x in want.tolist())
        seen["apart"] += int((lo.max(axis=1) > hi.min(axis=1)).sum())
    assert min(seen.values()) > 0, seen
