"""A bitwise gate over the closed-form densities: windows, tails and draws of
gaussian, cauchy and power_tail, plain and wrapped."""

import hashlib
import math

import numpy as np

import meanlab as ml


def _laws(rng):
    """Seeded gaussian, cauchy and power_tail laws (a != b and a = b), with
    locations up to 1e13 in magnitude and scales from 1e-3 to 1e3, each with
    its (loc, scale), or None for power_tail."""
    for _ in range(12):
        loc = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 13.0))
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        a, b = (float(v) for v in rng.uniform(1.01, 1.99, 2))
        yield ml.gaussian(loc, scale), (loc, scale)
        yield ml.cauchy(loc, scale), (loc, scale)
        yield ml.power_tail(a, b), None
        yield ml.power_tail(a, a), None
    for law in (ml.gaussian(), ml.cauchy()):
        yield law, (0.0, 1.0)
    yield ml.gaussian(0.0, 1e-3), (0.0, 1e-3)
    yield ml.cauchy(-0.0, 1e3), (-0.0, 1e3)


def _measures(rng):
    """Each law plain, as ``.shift(3.7).scale(-2.5)`` and as ``.scale(0.3)``,
    with the (loc, scale) its windows are placed at: the law's, mapped along
    as s * loc + a level by level, or (0, 1) for power_tail, plain or wrapped."""
    for law, loc_scale in _laws(rng):
        loc, scale = loc_scale or (0.0, 1.0)
        yield law, (loc, scale)
        yield law.shift(3.7).scale(-2.5), (
            (-2.5 * (loc + 3.7) + 0.0, 2.5 * scale) if loc_scale else (0.0, 1.0))
        yield law.scale(0.3), (0.3 * loc + 0.0, 0.3 * scale) if loc_scale else (0.0, 1.0)


def _requests(rng, loc, scale):
    """(lo, hi) window requests around ``loc`` at ``scale``: a 1-d batch with
    degenerate, signed-zero and infinite endpoints, a 9 x 60 stack of scan
    rows, and scalars.  The whole line [-inf, inf] is ``_gate_digest``'s own
    request."""
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
    """sha256 over every window, tail and draw of ``_measures``."""
    h = hashlib.sha256()

    def put(*arrays):
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())

    rng = np.random.default_rng(26)
    u = np.random.default_rng(27).random(50)
    for m, (loc, scale) in _measures(rng):
        for lo, hi in _requests(rng, loc, scale):
            put(*m.window_stats(lo, hi))
        put(m.tail_probability(np.array([0.0, -0.0, -1.0])),
            [m.tail_probability(t) for t in (0.0, -0.0, -1.0)])
        try:  # the whole line's moment inf - inf is refused
            put(*m.window_stats(-math.inf, math.inf))
        except ml.MeasureError as exc:
            h.update(str(exc).encode())
        put(m.tail_probability(np.array([math.inf, 0.0])), [m.tail_probability(math.inf)])
        try:
            draw, bias = m.sampler()
            put(draw(u.copy()), [bias])  # a draw may write over its uniforms
        except ml.MeasureError as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


# Recorded before gaussian, cauchy and power_tail shared one closed-form class,
# then re-recorded when P(|X| > inf) became 0.0 for every law (46 of the
# power_tail-based measures read it as +-2.2e-16 before), and again when the
# gate stopped asking each measure for its location-scale law: the windows
# are placed at the (loc, scale) carried along, the same requests as before,
# and the law is no longer hashed.  The earlier gate with only that hash
# left out gives this digest too.  Re-recorded once more when a whole-line
# window of a heavy-tailed law was refused instead of reading moment NaN:
# each of the 114 refusals read (mass, NaN) before, and every other request,
# whole-line ones included, hashes as before.
CLOSED_FORM_SHA256 = "1417a33a5f74b2d6a1049396f4e580e6bd44b24083e25cc053143bb637d70a81"


def test_closed_form_densities_are_bitwise_unchanged():
    assert _gate_digest() == CLOSED_FORM_SHA256


def test_a_shifted_law_has_no_mass_beyond_infinity():
    # t = inf reads 0 without asking the law, whose whole-line window a heavy
    # tail refuses
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
