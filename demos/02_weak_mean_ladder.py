#!/usr/bin/env python3
"""The ladder of means: ordinary, weak, doubly weak.

A finite ordinary mean forces the weak mean (same value), and a weak mean
forces the doubly weak mean (same value), but none of the implications
reverse.  The three measures below realize three distinct rungs:

* gaussian: all three rungs exist;
* Cauchy: only the doubly weak mean exists (the tail curve n P(|X| > n)
  stays near 2/pi instead of vanishing, so the weak law fails);
* symmetric dyadic comb: no rung exists at all, even though the centered
  partial means are identically zero (they settle at exactly one center).
"""

import numpy as np

import meanlab as ml

for name, measure in [
    ("gaussian(mu=1.5)", ml.gaussian(1.5, 1.0)),
    ("cauchy", ml.cauchy(0, 1)),
    ("symmetric dyadic comb", ml.comb_ex2()),
]:
    ladder = ml.mean_ladder(measure)
    curve = ladder.tail
    print(f"{name}")
    print(f"  ordinary mean : {ladder.ordinary_kind}"
          + (f" = {ladder.ordinary_value:.6f}" if ladder.ordinary_value is not None else ""))
    print(f"  weak mean     : "
          + (f"{ladder.weak_value:.6f}" if ladder.weak_value is not None else "absent"))
    print(f"  doubly weak   : "
          + (f"{ladder.doubly_weak_value:.6f}" if ladder.doubly_weak_value is not None else "absent"))
    picks = [int(i) for i in np.linspace(0, len(curve.ns) - 1, 6)]
    pairs = ", ".join(f"n={curve.ns[i]:.0f}: {curve.values[i]:.3g}" for i in picks)
    print(f"  n * P(|X| > n): {pairs}")
    print(f"  tail vanishes : {curve.tends_to_zero}  "
          f"(taxonomy case {ladder.taxonomy_case})\n")

print("Path dependence of asymmetric windows [a - M, b + K] on the Cauchy law:")
print("the K = M path gives 0 while K = 2M locks onto ln(2)/pi, so no")
print("path-independent limit exists (equivalently: x is not integrable).")
cau = ml.cauchy(0, 1)
for M in (1e2, 1e3, 1e4, 1e5):
    sym = ml.asym_partial_mean(cau, 0, 0, M, M)
    skew = ml.asym_partial_mean(cau, 0, 0, M, 2 * M)
    print(f"  M = {M:8.0f}: K=M -> {sym:+.6f}   K=2M -> {skew:+.6f}"
          f"   (ln2/pi = {np.log(2)/np.pi:.6f})")
