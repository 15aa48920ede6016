#!/usr/bin/env python3
"""Monte Carlo contrast between measures that obey the weak law and one
that does not.

Each experiment cell draws its replications from one generator keyed by
the seed, in row blocks, so the same seed prints the same numbers.
"""

import numpy as np

import meanlab as ml

SEED = 0

print("Deviation fractions P(|S_n/n - m| > eps), 500 replications each:")
gauss = ml.build_sampler(ml.gaussian(0, 1), seed=SEED)
rep = ml.wlln_experiment(gauss, m=0.0, epsilon=0.1,
                         n_values=[100, 1000, 10_000], replications=500)
print(f"  gaussian, eps = 0.1 : n = {rep.n_values} -> {rep.fractions}")
print("    (shrinks with n: the weak law holds)")

cau = ml.build_sampler(ml.cauchy(0, 1), seed=SEED)
rep = ml.wlln_experiment(cau, m=0.0, epsilon=1.0,
                         n_values=[100, 1000, 10_000], replications=500)
print(f"  cauchy,   eps = 1.0 : n = {rep.n_values} -> {rep.fractions}")
print("    (flat at 1/2: S_n/n is again standard Cauchy, and P(|X| > 1) = 1/2)\n")

print("Stability demo: sup distance between the empirical laws of")
print("5000 means of size n and 5000 fresh single draws.")
stab = ml.cauchy_stability_demo(cau, n=100, replications=5000)
print(f"  cauchy   n=100: {stab.distance:.4f}  "
      "(pure sampling noise: averaging changed nothing)")
stab1 = ml.cauchy_stability_demo(cau, n=1, replications=5000)
print(f"  cauchy   n=1  : {stab1.distance:.4f}  (control: same construction)")
gstab = ml.cauchy_stability_demo(gauss, n=100, replications=5000)
print(f"  gaussian n=100: {gstab.distance:.4f}  "
      "(macroscopic: the means contracted by a factor 10)\n")

print("One running-mean trajectory per measure (soft strong-law check):")
for name, sampler, mean in [("gaussian", gauss, 0.0), ("cauchy", cau, None)]:
    ns, means = ml.running_mean_trajectory(sampler, 100_000)
    picks = [99, 999, 9_999, 99_999]
    vals = ", ".join(f"n={n + 1}: {means[n]:+.4f}" for n in picks)
    print(f"  {name:8s}: {vals}")
    if mean is not None:
        inside = np.abs(means[1000:] - mean) <= 5.0 / np.sqrt(ns[1000:])
        print(f"            within the 5/sqrt(n) envelope beyond n=1000: "
              f"{100 * inside.mean():.1f}% of steps")
    else:
        print("            (no settling: single huge draws keep relocating "
              "the running mean)")
