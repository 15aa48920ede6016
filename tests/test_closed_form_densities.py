"""A bitwise gate over the closed-form densities: windows, tails, draws and
``location_scale()`` of gaussian, cauchy and power_tail, plain and wrapped."""

import hashlib
import math

import numpy as np

import meanlab as ml


def _laws(rng):
    """Seeded gaussian, cauchy and power_tail laws (a != b and a = b), with
    locations up to 1e13 in magnitude and scales from 1e-3 to 1e3."""
    for _ in range(12):
        loc = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 13.0))
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        a, b = (float(v) for v in rng.uniform(1.01, 1.99, 2))
        yield ml.gaussian(loc, scale)
        yield ml.cauchy(loc, scale)
        yield ml.power_tail(a, b)
        yield ml.power_tail(a, a)
    yield from (ml.gaussian(), ml.cauchy(), ml.gaussian(0.0, 1e-3), ml.cauchy(-0.0, 1e3))


def _measures(rng):
    """Each law plain, as ``.shift(3.7).scale(-2.5)`` and as ``.scale(0.3)``."""
    for law in _laws(rng):
        yield from (law, law.shift(3.7).scale(-2.5), law.scale(0.3))


def _requests(rng, measure):
    """(lo, hi) window requests: a 1-d batch with degenerate, signed-zero and
    infinite endpoints, a 9 x 60 stack of scan rows, and scalars.  The whole
    line [-inf, inf] is ``_gate_digest``'s own request."""
    law = measure.location_scale()
    loc, scale = law[1:] if law else (0.0, 1.0)
    x = np.sort(loc + scale * rng.standard_normal((2, 40)) * 10.0 ** rng.uniform(-2, 3, 40), axis=0)
    edges = [0.0, -0.0, math.inf, -math.inf, loc, 1.0, -1.0]
    lo = np.concatenate([x[0], x[0], [-0.0, 0.0, -0.0, -math.inf, -math.inf, math.inf,
                                      loc, 0.0, -1.0]])
    hi = np.concatenate([x[1], x[0], [0.0, -0.0, -0.0, -math.inf, 0.0, math.inf,
                                      loc, math.inf, 1.0]])
    yield lo, hi
    centers = loc + scale * np.linspace(-4.0, 4.0, 9)[:, None]
    radii = scale * np.geomspace(1e-3, 1e15, 60)[None]
    yield centers - radii, centers + radii
    for a in edges:
        for b in edges:
            if a <= b and (a, b) != (-math.inf, math.inf):
                yield a, b


def _gate_digest() -> str:
    """sha256 over every window, tail, draw and ``location_scale()`` of
    ``_measures``."""
    h = hashlib.sha256()

    def put(*arrays):
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())

    rng = np.random.default_rng(26)
    u = np.random.default_rng(27).random(50)
    for m in _measures(rng):
        for lo, hi in _requests(rng, m):
            put(*m.window_stats(lo, hi))
        put(m.tail_probability(np.array([0.0, -0.0, -1.0])),
            [m.tail_probability(t) for t in (0.0, -0.0, -1.0)])
        with np.errstate(invalid="ignore"):  # the whole line's moment inf - inf reads NaN
            put(*m.window_stats(-math.inf, math.inf))
        put(m.tail_probability(np.array([math.inf, 0.0])), [m.tail_probability(math.inf)])
        try:
            draw, bias = m.sampler()
            put(draw(u), [bias])
        except ml.MeasureError as exc:
            h.update(str(exc).encode())
        h.update(repr(m.location_scale()).encode())
    return h.hexdigest()


# Recorded before gaussian, cauchy and power_tail shared one closed-form class,
# then re-recorded once when P(|X| > inf) became 0.0 for every law: 46 of the
# power_tail-based measures read it as +-2.2e-16 before, and the old digest
# with those values set to 0.0 is this one.
CLOSED_FORM_SHA256 = "b0af6bd6540a61b5448003e13b907d6a651c79b35414cb467d7beab3577aa1b6"


def test_closed_form_densities_are_bitwise_unchanged():
    assert _gate_digest() == CLOSED_FORM_SHA256


def test_a_shifted_law_has_no_mass_beyond_infinity():
    # t = inf reads 0 without asking the law, whose whole-line window has the
    # moment inf - inf
    for law in (ml.gaussian(), ml.cauchy(), ml.power_tail(1.5, 1.8)):
        m = law.shift(1.0)
        assert m.tail_probability(math.inf) == 0.0
        assert m.tail_probability(np.array([math.inf, -math.inf])).tolist() == [0.0, 1.0]


def test_gaussian_windows_far_out_are_finite():
    # phi(z) once squared z, which overflows past |z| ~ 1.3e154
    m = ml.gaussian()
    assert [float(v) for v in m.window_stats(-1e200, 1e200)] == [1.0, 0.0]
    assert m.shift(1.0).tail_probability(1e300) == 0.0
    assert ml.asym_partial_mean(m, 0.0, 0.0, 1e200, 1e200) == 0.0
    assert [float(v) for v in m.window_stats(1e300, math.inf)] == [0.0, 0.0]
