#!/usr/bin/env python3
"""Spectral measures and when a quantum mean exists.

A Hermitian observable A and a state psi induce a probability measure on
the spectrum; the quadratic form <A psi, psi> is its first moment.  The
square-root split A = E^2 - F^2 rewrites the mean as
||E psi||^2 - ||F psi||^2, and in infinite dimensions each term can blow up
on its own.  The diagonal bridge makes that concrete.
"""

import numpy as np

import meanlab as ml

print("A 3-level observable in a uniform superposition:")
A = np.diag([1.0, 2.0, 3.0])
psi = np.ones(3) / np.sqrt(3)
comb = ml.induced_measure(A, psi)
print(f"  induced measure: "
      f"{[(a.location, round(a.weight, 4)) for a in comb.atoms_within(10)]}")
print(f"  mean = {ml.qm_mean(A, psi):.6f}, variance = {ml.qm_variance(A, psi):.6f}\n")

print("Sign split of an indefinite observable, A = E^2 - F^2:")
B = np.diag([4.0, 0.0, -9.0])
E, F = ml.pos_neg_split(B)
print(f"  E = diag{np.round(np.diag(E).real, 6).tolist()}, "
      f"F = diag{np.round(np.diag(F).real, 6).tolist()}")
phi = np.array([0.6, 0.0, 0.8])
print(f"  <B phi, phi> = {ml.qm_mean(B, phi):+.4f} = "
      f"||E phi||^2 - ||F phi||^2 = "
      f"{np.linalg.norm(E @ phi) ** 2:.4f} - {np.linalg.norm(F @ phi) ** 2:.4f}\n")

print("Random 6x6 cross-check of the mean identity and projection duality:")
rng = np.random.default_rng(1)
g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
A = (g + g.conj().T) / 2
v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
psi = v / np.linalg.norm(v)
E, F = ml.pos_neg_split(A)
lhs = ml.qm_mean(A, psi)
rhs = np.linalg.norm(E @ psi) ** 2 - np.linalg.norm(F @ psi) ** 2
comb = ml.induced_measure(A, psi)
print(f"  quadratic form {lhs:+.10f} vs split {rhs:+.10f}")
print(f"  P(A in [0, 2]) via measure {comb.window_stats(0, 2)[0]:.10f} vs "
      f"projector {ml.window_projection_probability(A, psi, 0, 2):.10f}\n")

print("Diagonal bridge: countable operators feeding the truncated-mean lab.")
for label, bridge in [
    ("eigenvalues +-2^n, weights 2^-(n+1)", ml.build_bridge("dyadic_symmetric")),
    ("eigenvalues n, weights ~ n^-4", ml.build_bridge("power_law_integer", p=4.0)),
    ("eigenvalues n, weights ~ n^-3", ml.build_bridge("power_law_integer", p=3.0)),
]:
    report = ml.bridge_analyze(bridge)
    b = report.bridge
    mean = ("exists" if report.mean_exists else "does not exist")
    var = ("exists" if report.variance_exists else "does not exist")
    ladder_val = (f" = {report.ladder.ordinary_value:.6f}"
                  if report.ladder.ordinary_value is not None else "")
    print(f"  {label}")
    print(f"    dom E: {b.in_dom_e}, dom F: {b.in_dom_f}, dom A: {b.in_dom_a}")
    print(f"    mean {mean}{ladder_val}; variance {var}")
    if b.in_dom_e and not b.in_dom_a:
        print("    -> a state inside the domain of E but outside the domain of")
        print("       A itself: the mean is finite while the variance is not.")
