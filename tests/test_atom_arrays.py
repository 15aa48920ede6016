"""Atomic measures built from (locations, weights) arrays: a bitwise gate over
the enumerations, spectral atoms and dense-comb draws, and the atom checks."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanlab as ml


def _hermitian_cases():
    """Seeded Hermitian matrices with unit states: dense random spectra, and
    integer spectra rotated by a random unitary, whose repeated eigenvalues
    merge into one atom each."""
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 5, 8, 13, 32, 64, 128):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        rotated = (u * rng.integers(-3, 4, n)) @ u.conj().T
        for mat in (a + a.conj().T, 0.5 * (rotated + rotated.conj().T)):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield mat, psi / np.linalg.norm(psi)


def _gate_digest() -> str:
    """sha256 over the enumerated and sorted atom arrays of comb_ex1/2/4/5
    after construction and again after ``build_sampler``, the atom arrays of
    the induced measures of ``_hermitian_cases``, and dense-comb draws."""
    h = hashlib.sha256()

    def put(*arrays):
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())

    for build in (ml.comb_ex1, ml.comb_ex2, ml.comb_ex4, ml.comb_ex5):
        m = build()
        put(*m._enumerated, m._sorted[0], *m._sorted[1], m._ends)
        ml.build_sampler(m, seed=0)
        put(*m._enumerated, m._sorted[0], *m._sorted[1], m._ends)
    for mat, psi in _hermitian_cases():
        put(*ml.induced_measure(mat, psi).atom_arrays(math.inf))
    u = np.random.default_rng(26).random(4096)
    for p in (4.0, 6.0):
        draw, bias = ml.integer_power_comb(p).sampler()
        put(draw(u), [bias])
    return h.hexdigest()


# Recorded before blocks returned (locations, weights) instead of Atom tuples,
# in a child process pinned to one BLAS thread (the eigensolver's last bits
# depend on the thread count).  Blocks are built atom by atom with Python's
# float ``**`` on purpose: numpy 2.4's float64 power on an AVX-512 host
# differs from it in 31 of the first 639 powers of 3, 22 of 639 comb_ex4
# weights and about 5% of n^-p (10,290 to 10,842 of the first 200,000 for p
# in {1.5, 2.5, 3.3, 3.9, 4, 6}), so one numpy expression per run of blocks
# would move atoms, windows and pinned draws.
ATOM_ARRAYS_SHA256 = "dfd7ab6a85d53f2cf48ff016fc62b11d2c01c70485dd703b2da9c706ca25f930"


def test_atom_arrays_are_bitwise_unchanged():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]\n"
            "import test_atom_arrays; print(test_atom_arrays._gate_digest())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [ATOM_ARRAYS_SHA256]


def _doubling_comb(bad=None):
    """comb_ex2's atoms +-2^n of weight 2^-(n+1) from a user block; ``bad``
    holds (location, weight) for block 33 once, armed after construction."""

    def block(n):
        w = 2.0 ** -(n + 1)
        if n == 33 and bad:
            x, w = bad.pop()
            return (2.0 ** n, x), (w, w)
        return (2.0 ** n, -(2.0 ** n)), (w, w)

    return ml.AtomicComb("doubling", block, tail_mass_bound=lambda n: 2.0 ** -n,
                         location_floor=lambda n: 2.0 ** (n + 1))


@pytest.mark.parametrize("location, weight, message", [
    (math.nan, 0.25, "location must be finite, got nan"),
    (math.inf, 0.25, "location must be finite, got inf"),
    (-math.inf, 0.25, "location must be finite, got -inf"),
    (-1.0, 0.0, "weight must be positive, got 0.0"),
    (-1.0, -0.25, "weight must be positive, got -0.25"),
    (-1.0, math.nan, "weight must be positive, got nan"),
])
def test_a_bad_atom_is_refused_before_it_enters_the_cache(location, weight, message):
    bad = []
    m = _doubling_comb(bad)
    bad.append((location, weight))
    with pytest.raises(ml.MeasureError, match=message):
        m.atom_arrays(2.0 ** 34)
    x, w = m._enumerated
    assert x.size == 64 and np.all(np.isfinite(x)) and np.all(w > 0.0)  # blocks 1..32
    assert m.atom_arrays(2.0 ** 32)[0].size == 64  # the cache still answers
    powers = 2.0 ** np.arange(1, 35)
    np.testing.assert_array_equal(m.atom_arrays(2.0 ** 34)[0],
                                  np.concatenate([-powers[::-1], powers]))
    with pytest.raises(ml.MeasureError, match=message):  # the rule Atom keeps
        ml.Atom(location, weight)


def test_a_bad_atom_is_refused_at_construction():
    with pytest.raises(ml.MeasureError, match="weight must be positive, got 0.0"):
        ml.AtomicComb("bad", lambda n: ((0.0, 1.0), (1.0, 0.0)) if n == 1 else ((), ()),
                      tail_mass_bound=lambda n: 0.0 if n else 1.0,
                      location_floor=lambda n: math.inf if n else 1.0)
    with pytest.raises(ml.MeasureError, match="at least one atom"):
        ml.finite_comb([])


def _halving_comb():
    """One atom at each n >= 1, of weight 2^-n."""
    return ml.AtomicComb("halving", lambda n: ((float(n),), (0.5 ** n,)),
                         tail_mass_bound=lambda n: 0.5 ** n,
                         location_floor=lambda n: n + 1.0)


def test_the_atom_cap_does_not_depend_on_what_was_enumerated():
    fresh, listed = _halving_comb(), _halving_comb()
    assert listed.atom_arrays(1000.0)[0].size == 1000
    for m in (fresh, listed):
        with pytest.raises(ml.MeasureError, match="more than 500 atoms"):
            m.atom_arrays(1000.0, max_atoms=500)
        np.testing.assert_array_equal(m.atom_arrays(500.0, max_atoms=500)[0],
                                      np.arange(1.0, 501.0))


def _squares_comb():
    """Atoms at n^2 with weight n^-4 / zeta(4): mean zeta(2) / zeta(4) = 15 / pi^2."""
    z4 = math.pi ** 4 / 90.0
    return ml.AtomicComb("squares", lambda n: ((float(n * n),), (float(n) ** -4 / z4,)),
                         tail_mass_bound=lambda n: (max(n, 1) ** -3.0 / 3.0) / z4 if n else 1.0,
                         location_floor=lambda n: float((n + 1) ** 2))


def test_a_scan_reads_the_same_whatever_was_enumerated():
    # more than the 50,000 probe atoms lie within the scan's reach; once they
    # were enumerated, the probe cap used to let them all through
    fresh, listed = _squares_comb(), _squares_comb()
    listed.atoms_within(3e10)
    first, second = ml.classify_taxonomy(fresh), ml.classify_taxonomy(listed)
    assert first.case == second.case
    for c, series in first.series.items():
        assert series.values.tobytes() == second.series[c].values.tobytes()
