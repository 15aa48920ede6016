#!/usr/bin/env python3
"""What makes the arithmetic mean the mean.

Homogeneity, symmetry, and translation invariance already pin down every
statistic at sizes one and two.  The separating axiom is condensation:
replacing a sub-tuple by copies of its own statistic must not move the
overall value.  The mean obeys it; the median and its convex blends do not.
"""

import meanlab as ml

STATS = ["mean", "median", "midrange", "convex:0.5"]
AXIOMS = list(ml.AxiomId)

print("Harness verdicts over 2000 randomized tuples per cell (seed 0):\n")
header = f"{'statistic':12s}" + "".join(f"{ax.name:>6s}" for ax in AXIOMS)
print(header)
for name in STATS:
    stat = ml.builtin_statistic(name)
    row = f"{name:12s}"
    for ax in AXIOMS:
        rep = ml.check_axiom(stat, ax, trials=2000, seed=0)
        row += f"{'yes' if rep.passed else 'NO':>6s}"
    print(row)

print("\nThe condensation failure of the median, replayed by hand:")
rep = ml.check_axiom(ml.median_statistic, ml.AxiomId.COND, trials=2000, seed=0)
xs = rep.counterexample["xs"]
m = rep.counterexample["m"]
sub = ml.median_statistic(xs[:m])
condensed = (sub,) * m + xs[m:]
print(f"  data {xs}: median = {ml.median_statistic(xs)}")
print(f"  condense the first {m} entries to their median {sub}: "
      f"{condensed} has median {ml.median_statistic(condensed)}")

print("\nAt sizes one and two, every homogeneous symmetric translation-")
print("invariant statistic coincides with the mean:")
for other in ("median", "midrange"):
    rep = ml.two_point_coincidence(ml.mean_statistic,
                                   ml.builtin_statistic(other), trials=300)
    print(f"  mean vs {other:8s}: max residual n=1: {rep.max_residual_n1:.1e}, "
          f"n=2: {rep.max_residual_n2:.1e}, first divergence at n=3: "
          f"{rep.divergence_n3['xs'] if rep.divergence_n3 else 'none'}")
