"""The three workloads: seeded inputs, one operation each, and why.

Every library operation is a spec dict generated from (seed, round) alone,
so a run can be replayed exactly (the traced run does).  Each round holds a
fixed number of operations of every kind, with parameters drawn from the
seed, which keeps the mix, and so the cost of a round, the same across seeds.
Parameters that decide whether the parent code is right are drawn from fixed
strata (see "Strata" below), which keeps the number of failing operations
the same across seeds too.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

import oracle

WHY = {
    "verdicts": "the paper's core path: taxonomy, ladder and tail curve on freshly "
                "built measures; window arithmetic (measures) and scanning (genmean) "
                "do almost all the work",
    "experiments": "LLN sampler, maxent Newton, axiom trials, dense eigh and the "
                   "quadrature multiplier do the work; window arithmetic does little, "
                   "and the sampler unwraps affine measures instead of pushing windows",
    "cli_cold": "one fresh meanlab process per emitted example document: import, "
                "argparse and JSON/CSV writing dominate; the only cold-start workload",
}

# A run checks this many distinct rounds, so ``attempted`` and ``failed``
# are the same in every run; it cycles through them, in whole cycles, until
# its time is up, and every repeat must reproduce the first run's results.
DISTINCT_ROUNDS = {"verdicts": 3, "experiments": 5}

COMBS = ("comb_ex1", "comb_ex2", "comb_ex4", "comb_ex5")
WRAP_KINDS = ("shift", "scale", "negate", "affine")
SHIFTS = (-4.0, -2.0, -1.0, 1.0, 2.0, 4.0)  # nonzero points of the default grid

# Inputs on which the parent code is known to return wrong verdicts; every
# round carries them so those defects stay counted (see oracle.KNOWN_DEFECTS).
PINNED = (
    {"kind": "verdict", "family": "cauchy", "params": {}, "wrap": [["shift", 1e12]]},
    {"kind": "verdict", "family": "cauchy", "params": {}, "wrap": [["shift", 1e6]]},
    {"kind": "verdict", "family": "integer_power_comb", "params": {"p": 2.5}},
    {"kind": "verdict", "family": "integer_power_comb", "params": {"p": 2.0}},
    {"kind": "bridge", "family": "power_law_integer", "params": {"p": 2.5}},
)

# A maxent problem on which Newton stalls at a moment gap of 1.5e-10, short
# of feas_tol = 1e-10 (the oracle's ``maxent`` stall signature).
PINNED_MAXENT = {"kind": "maxent", "n": 5,
                 "observables": [[0.409, -0.428, -1.078, -1.054, 2.103]],
                 "targets": [0.1900779329783188], "base": "bits"}

# Strata.  Every seeded parameter that decides whether the parent code gets
# an input right is drawn from one of two strata, one on each side of the
# defect's boundary and clear of it, and every round holds a fixed number of
# operations from each.  So the operations that fail are the same number in
# every run, whatever the seed, and a change that moves a boundary shows as
# a changed count.  The boundaries, from sweeps of each parameter on the
# parent code (pass below / fail above unless noted):
#   cauchy |loc| / scale       9e5 / 1.5e6 for |loc| below 4e9; past that
#                              the verdict flips between wrong and Undetermined
#                              (always Undetermined past a ratio of 4e13)
#   gaussian |mu|              5.9e4 / 1.2e5
#   power_tail, a != b         fails below a gap of 9.4e3, passes above 1.0e4
#                              (gap: oracle.power_tail_gap; the window
#                              multiplier: 8.0e3 / 1.1e4)
#   power_tail, a = b          fails below 1.560, passes above 1.573
#   integer_power_comb p       fails below 2.615, passes above 2.673
#   comb_ex4/5 wrapped         fails exactly when the shift is outward
CAUCHY_RATIO = {"pass": (1e-3, 1e5), "defect": (1e7, 1e9)}
CAUCHY_FAR_LOC = 2e9  # largest |loc| of the defect stratum
GAUSSIAN_MU = {"pass": (1e-2, 1e4), "defect": (1e6, 1e13)}
POWER_GAP = {"pass": (1e5, math.inf), "defect": (0.0, 1e3)}
POWER_EQUAL = {"pass": (1.65, 1.95), "defect": (1.05, 1.5)}
COMB_P = {"pass": (2.8, 5.0), "defect": (1.2, 2.5)}


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _strat(seed: int, r: int, j: int, rounds: int) -> float:
    """A point of [0, 1) for parameter j of round r of ``rounds``.

    The rounds of a run take the midpoints (k + 1/2) / rounds, in a seeded
    order per parameter, so the parameters that set an operation's cost take
    the same values in every run and the seed only reorders them.
    """
    rng = np.random.default_rng([seed, 0, j])
    return (int(rng.permutation(rounds)[r]) + 0.5) / rounds


def _strat_log(seed, r, j, rounds, lo, hi) -> float:
    return float(10.0 ** (math.log10(lo) + _strat(seed, r, j, rounds) * math.log10(hi / lo)))


def _wrap(rng, kind: str, outward: bool | None = None) -> list:
    """A wrap of the given kind; ``outward`` fixes the sign of the shift's
    product with the scale (oracle.affine), which decides comb_ex4/5."""
    shift = float(rng.choice(SHIFTS))
    scale = _loguniform(rng, 0.25, 4.0)
    if outward is not None and kind in ("shift", "affine"):
        m = 1.0 if kind == "shift" else -1.0
        shift = abs(shift) * (m if outward else -m)
    return {"shift": [["shift", shift]], "scale": [["scale", scale]],
            "negate": [["negate"]],
            "affine": [["negate"], ["scale", scale], ["shift", shift]]}[kind]


def _power_pair(rng, stratum: str) -> tuple[float, float]:
    """Exponents a != b in [1.05, 1.95] whose gap lies in POWER_GAP[stratum]."""
    lo, hi = POWER_GAP[stratum]
    while True:
        a, b = (float(x) for x in rng.uniform(1.05, 1.95, 2))
        if a != b and lo <= oracle.power_tail_gap(a, b) <= hi:
            return a, b


def _signed_loguniform(rng, lo, hi) -> float:
    return float(rng.choice((-1.0, 1.0))) * _loguniform(rng, lo, hi)


def verdict_round(seed: int, r: int) -> list[dict]:
    """28 operations: every comb plain and wrapped plus one comb_ex4/5 with
    an outward shift, and one operation from each stratum of the dense comb,
    Cauchy, Gaussian and both kinds of power tail; two empirical samples on
    either side of max_probes = 400, both bridges, and PINNED.  11 of them
    lie where the parent code is wrong."""
    rng = np.random.default_rng([seed, 1, r])
    rounds = DISTINCT_ROUNDS["verdicts"]
    specs = []
    for fam, k in zip(COMBS, rng.permutation(len(WRAP_KINDS))):
        specs.append({"kind": "verdict", "family": fam})
        inward = False if fam in ("comb_ex4", "comb_ex5") else None
        specs.append({"kind": "verdict", "family": fam,
                      "wrap": _wrap(rng, WRAP_KINDS[k], outward=inward)})
    specs.append({"kind": "verdict", "family": str(rng.choice(("comb_ex4", "comb_ex5"))),
                  "wrap": _wrap(rng, str(rng.choice(("shift", "affine"))), outward=True)})
    for j, stratum in ((0, "pass"), (4, "defect")):
        lo, hi = COMB_P[stratum]
        specs.append({"kind": "verdict", "family": "integer_power_comb",
                      "params": {"p": lo + (hi - lo) * _strat(seed, r, j, rounds)}})
    for stratum in ("pass", "defect"):
        ratio = _signed_loguniform(rng, *CAUCHY_RATIO[stratum])
        scale = _loguniform(rng, 1e-2, min(1e3, CAUCHY_FAR_LOC / abs(ratio)))
        loc = ratio * scale
        specs.append({"kind": "verdict", "family": "cauchy",
                      "params": {"loc": loc, "scale": scale}})
        specs.append({"kind": "verdict", "family": "gaussian",
                      "params": {"mu": _signed_loguniform(rng, *GAUSSIAN_MU[stratum]),
                                 "sigma": _loguniform(rng, 1e-2, 1e3)}})
        a, b = _power_pair(rng, stratum)
        e = float(rng.uniform(*POWER_EQUAL[stratum]))
        specs.append({"kind": "verdict", "family": "power_tail", "params": {"a": a, "b": b}})
        specs.append({"kind": "verdict", "family": "power_tail", "params": {"a": e, "b": e}})
    for j, (lo, hi) in ((1, (50, 400)), (2, (400, 5000))):
        n = int(round(_strat_log(seed, r, j, rounds, lo, hi)))
        mu, sigma = float(rng.uniform(-10, 10)), _loguniform(rng, 1e-2, 1e3)
        specs.append({"kind": "verdict", "family": "empirical",
                      "samples": mu + sigma * rng.standard_normal(n)})
    specs.append({"kind": "bridge", "family": "dyadic_symmetric", "params": {}})
    lo, hi = COMB_P["pass"]
    specs.append({"kind": "bridge", "family": "power_law_integer",
                  "params": {"p": lo + (hi - lo) * _strat(seed, r, 3, rounds)}})
    specs.extend(dict(s) for s in PINNED)
    return [specs[i] for i in rng.permutation(len(specs))]


def _law(rng, family: str) -> dict:
    keys = ("loc", "scale") if family == "cauchy" else ("mu", "sigma")
    return {"family": family,
            "params": {keys[0]: float(rng.uniform(-5, 5)), keys[1]: _loguniform(rng, 0.1, 10)},
            "wrap": _wrap(rng, WRAP_KINDS[int(rng.integers(len(WRAP_KINDS)))])}


def _hermitian(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (a + a.conj().T) / 2.0, psi / np.linalg.norm(psi)


def experiment_round(seed: int, r: int) -> list[dict]:
    """17 operations: wlln, stability, trajectory, three maxent problems,
    three axiom checks (mean, median passing, median failing), three spectral
    matrices (n in [4,16), [16,64), [64,128]), exp_tilt on Cauchy and on
    power_tail, and window on Cauchy and on power_tail from each stratum.
    Three of them lie where the parent code is wrong."""
    rng = np.random.default_rng([seed, 2, r])
    rounds = DISTINCT_ROUNDS["experiments"]
    fams = ("cauchy", "gaussian") if r % 2 == 0 else ("gaussian", "cauchy")
    specs = []
    law = _law(rng, fams[0])
    scale = oracle.law(law)[2]
    specs.append(dict(law, kind="wlln", epsilon=scale * float(rng.uniform(0.5, 2.0)),
                      n_values=[10, 100, 1000], replications=300,
                      seed=int(rng.integers(2**31))))
    specs.append(dict(_law(rng, fams[1]), kind="stability", n=int(rng.integers(20, 200)),
                      replications=1000, seed=int(rng.integers(2**31))))
    specs.append(dict(_law(rng, fams[0]), kind="trajectory",
                      n=int(5000 + 15000 * _strat(seed, r, 0, rounds)), seed=int(rng.integers(2**31))))
    # Newton stalls on about 0.8% of these problems (94 of 12,300 swept),
    # with no pattern in n, k or the targets, so they are drawn from the
    # round alone: every seed runs the same ones, and PINNED_MAXENT keeps
    # the stall counted.
    mrng = np.random.default_rng([2, r])
    for _ in range(2):
        n = int(mrng.integers(3, 40))
        k = int(mrng.integers(0, min(4, n)))
        obs = np.round(mrng.standard_normal((k, n)), 3)
        q = mrng.dirichlet(np.ones(n))
        specs.append({"kind": "maxent", "n": n, "observables": obs.tolist(),
                      "targets": (obs @ q).tolist(), "base": "bits"})
    specs.append(dict(PINNED_MAXENT))
    # A passing check runs every trial and a failing one stops at the first
    # counterexample, so each round holds one of each kind of outcome.
    table = oracle.AXIOM_TABLE
    median_pass = sorted(ax for ax, ok in table["median"].items() if ok)
    median_fail = sorted(ax for ax, ok in table["median"].items() if not ok)
    trials = int(100 + 200 * _strat(seed, r, 7, rounds))
    for stat, choices in (("mean", sorted(table["mean"])), ("median", median_pass),
                          ("median", median_fail)):
        specs.append({"kind": "axiom", "stat": stat, "trials": trials,
                      "axiom": choices[int(_strat(seed, r, 6, rounds) * len(choices))],
                      "seed": int(rng.integers(2**31))})
    for j, (lo, hi) in ((1, (4, 16)), (2, (16, 64)), (3, (64, 129))):
        a, psi = _hermitian(rng, int(lo + (hi - lo) * _strat(seed, r, j, rounds)))
        specs.append({"kind": "spectral", "matrix": a, "state": psi})
    # pb sits a quarter step off pa's grid, so a != b always
    pa = 1.05 + 0.9 * _strat(seed, r, 4, rounds)
    pb = 1.05 + 0.9 * (_strat(seed, r, 5, rounds) - 0.25 / rounds)
    specs.append({"kind": "multiplier", "multiplier": "exp_tilt", "family": "cauchy",
                  "params": {"loc": 0.0, "scale": 1.0}, "c": -5.0 + 10.0 * _strat(seed, r, 6, rounds)})
    specs.append({"kind": "multiplier", "multiplier": "exp_tilt", "family": "power_tail",
                  "params": {"a": pa, "b": pb}, "c": 0.0})
    specs.append({"kind": "multiplier", "multiplier": "window", "family": "cauchy",
                  "params": {"loc": float(rng.uniform(-5, 5)), "scale": _loguniform(rng, 0.1, 10)},
                  "c": float(rng.uniform(-3, 3))})
    for stratum in ("pass", "defect"):
        a, b = _power_pair(rng, stratum)
        specs.append({"kind": "multiplier", "multiplier": "window", "family": "power_tail",
                      "params": {"a": a, "b": b}, "c": float(rng.uniform(-3, 3))})
    return [specs[i] for i in rng.permutation(len(specs))]


ROUNDS = {"verdicts": verdict_round, "experiments": experiment_round}


def warmup_specs(workload: str) -> list[dict]:
    """One small operation of each kind, run untimed during set-up."""
    if workload == "verdicts":
        rng = np.random.default_rng(0)
        return [{"kind": "verdict", "family": "comb_ex2"},
                {"kind": "verdict", "family": "comb_ex2", "wrap": _wrap(rng, "affine")},
                {"kind": "verdict", "family": "integer_power_comb", "params": {"p": 4.0}},
                {"kind": "verdict", "family": "cauchy", "params": {"loc": 1.0, "scale": 1.0}},
                {"kind": "verdict", "family": "gaussian", "params": {"mu": 1.0, "sigma": 1.0}},
                {"kind": "verdict", "family": "power_tail", "params": {"a": 1.5, "b": 1.8}},
                {"kind": "verdict", "family": "empirical", "samples": rng.standard_normal(50)},
                {"kind": "bridge", "family": "dyadic_symmetric", "params": {}}]
    rng = np.random.default_rng(0)
    a, psi = _hermitian(rng, 8)
    law = {"family": "cauchy", "params": {"loc": 0.0, "scale": 1.0}, "wrap": [["scale", 2.0]]}
    return [dict(law, kind="wlln", epsilon=1.0, n_values=[10], replications=100, seed=0),
            dict(law, kind="stability", n=10, replications=1000, seed=0),
            dict(law, kind="trajectory", n=100, seed=0),
            {"kind": "maxent", "n": 4, "observables": [[1, 2, 3, 4]], "targets": [3.2],
             "base": "bits"},
            {"kind": "axiom", "stat": "median", "axiom": "T", "trials": 20, "seed": 0},
            {"kind": "spectral", "matrix": a, "state": psi},
            {"kind": "multiplier", "multiplier": "window", "family": "cauchy",
             "params": {"loc": 0.0, "scale": 1.0}, "c": 0.0}]


def family_key(spec: dict) -> str:
    """The family an operation's failure is filed under, with the region of
    a known defect it lies in (``oracle.region``)."""
    kind = spec["kind"]
    if kind == "bridge":
        key = f"bridge:{spec['family']}"
    elif kind == "multiplier":
        key = f"multiplier:{spec['multiplier']}:{spec['family']}"
    elif kind == "verdict":
        key = spec["family"]
    else:
        return kind
    return key + oracle.region(spec)


# ---------------------------------------------------------------------------
# Running one library operation
# ---------------------------------------------------------------------------

def build_measure(ml, spec: dict):
    measures = ml.measures
    family, params = spec["family"], spec.get("params", {})
    if family == "empirical":
        m = measures.EmpiricalMeasure(spec["samples"])
    else:
        m = getattr(measures, family)(**params)
    for w in spec.get("wrap", ()):
        m = m.shift(w[1]) if w[0] == "shift" else m.scale(w[1]) if w[0] == "scale" else m.negate()
    return m


def _verdict_dict(v) -> dict:
    return {k: val for k, val in dataclasses.asdict(v).items() if val is not None}


def _ladder_dict(ladder) -> dict:
    return {"ordinary": ladder.ordinary_kind, "ordinary_value": ladder.ordinary_value,
            "weak": ladder.weak_value, "doubly_weak": ladder.doubly_weak_value,
            "taxonomy_case": ladder.taxonomy_case}


def _run_verdict(ml, spec, span):
    genmean, spectral = ml.genmean, ml.spectral
    with span("measures.build"):
        if spec["kind"] == "bridge":
            bridge = spectral.build_bridge(spec["family"], **spec["params"])
            measure = bridge.comb
        else:
            measure = build_measure(ml, spec)
    tax = genmean.classify_taxonomy(measure)
    if spec["kind"] == "bridge":
        report = spectral.bridge_analyze(bridge)
        ladder = report.ladder
    else:
        ladder = genmean.mean_ladder(measure)
    tail = genmean.tail_mass_curve(measure)
    res = {"case": tax.case, "c_star": tax.c_star, "c_threshold": tax.c_threshold,
           "common_value": tax.common_value,
           "per_center": {repr(c): _verdict_dict(v) for c, v in tax.per_center.items()},
           "ladder": _ladder_dict(ladder), "tail_tends_to_zero": tail.tends_to_zero}
    if spec["kind"] == "bridge":
        res.update(mean_exists=report.mean_exists, variance_exists=report.variance_exists,
                   analytic_mean=bridge.analytic_mean)
    return res


def _run_lln(ml, spec, span):
    lln = ml.lln
    with span("measures.build"):
        measure = build_measure(ml, spec)
    sampler = lln.build_sampler(measure, seed=spec["seed"])
    kind = spec["kind"]
    if kind == "wlln":
        rep = lln.wlln_experiment(sampler, oracle.law(spec)[1], spec["epsilon"],
                                  spec["n_values"], spec["replications"])
        return {"n_values": list(rep.n_values), "fractions": list(rep.fractions),
                "replications": rep.replications}
    if kind == "stability":
        rep = lln.cauchy_stability_demo(sampler, spec["n"], spec["replications"])
        return {"n": rep.n, "replications": rep.replications, "distance": rep.distance}
    _, means = lln.running_mean_trajectory(sampler, spec["n"])
    x = sampler.draw(spec["n"], stream=(3,))  # the same draws, for the oracle
    return {"n": spec["n"], "final_running_mean": float(means[-1]),
            "fsum_mean": math.fsum(x.tolist()) / spec["n"],
            "mean_abs": float(np.mean(np.abs(x)))}


def _run_maxent(ml, spec, span):
    maxent = ml.maxent
    problem = maxent.MaxEntProblem(
        n=spec["n"], observables=tuple(maxent.FiniteObservable(tuple(g))
                                       for g in spec["observables"]),
        targets=tuple(spec["targets"]), base=spec["base"])
    sol = maxent.maxent_solve(problem)
    return {"betas": list(sol.betas), "log_partition": sol.log_partition,
            "distribution": list(sol.distribution.probabilities),
            "entropy": sol.entropy, "newton_steps": sol.newton_steps}


def _run_axiom(ml, spec, span):
    axioms = ml.axioms
    rep = axioms.check_axiom(axioms.builtin_statistic(spec["stat"]),
                             axioms.AxiomId[spec["axiom"]],
                             trials=spec["trials"], seed=spec["seed"])
    return {"passed": rep.passed, "trials": rep.trials}


def _run_spectral(ml, spec, span):
    spectral = ml.spectral
    a, psi = spec["matrix"], spec["state"]
    comb = spectral.induced_measure(a, psi)
    atoms = comb.atoms_within(math.inf)
    mean, var = spectral.qm_mean(a, psi), spectral.qm_variance(a, psi)
    e, f = spectral.pos_neg_split(a)
    w = [at.weight for at in atoms]
    x = [at.location for at in atoms]
    mmean = math.fsum(wi * xi for wi, xi in zip(w, x))
    return {"mean": mean, "variance": var, "weight_sum": math.fsum(w),
            "measure_mean": mmean,
            "measure_variance": math.fsum(wi * (xi - mmean) ** 2 for wi, xi in zip(w, x)),
            "split_residual": float(np.linalg.norm(e @ e - f @ f - a)),
            "split_mean": float(np.linalg.norm(e @ psi) ** 2 - np.linalg.norm(f @ psi) ** 2),
            "norm": float(np.linalg.norm(a))}


def _run_multiplier(ml, spec, span):
    genmean = ml.genmean
    with span("measures.build"):
        measure = build_measure(ml, spec)
    fam = (genmean.ExpTiltMultiplier(spec["c"]) if spec["multiplier"] == "exp_tilt"
           else genmean.WindowMultiplier(spec["c"]))
    series = genmean.multiplier_mean(measure, fam)
    return {"verdict": _verdict_dict(series.verdict)}


RUNNERS = {"verdict": _run_verdict, "bridge": _run_verdict, "wlln": _run_lln,
           "stability": _run_lln, "trajectory": _run_lln, "maxent": _run_maxent,
           "axiom": _run_axiom, "spectral": _run_spectral, "multiplier": _run_multiplier}


class _NoSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


def no_span(name, info=None):
    return _NoSpan()


def run_op(ml, spec: dict, span=no_span) -> dict:
    return RUNNERS[spec["kind"]](ml, spec, span)


def check_op(spec: dict, res: dict) -> str | None:
    bad = oracle.strict_json(res)
    if bad:
        return bad
    kind = spec["kind"]
    if kind in ("verdict", "bridge"):
        return oracle.check_verdict(spec, res)
    if kind == "wlln":
        return oracle.check_wlln(spec, res)
    if kind == "stability":
        return oracle.check_stability(spec, res)
    if kind == "trajectory":
        return oracle.check_trajectory(spec, res)
    if kind == "maxent":
        return oracle.check_maxent(spec, res)
    if kind == "axiom":
        return oracle.check_axiom(spec["stat"], spec["axiom"], res["passed"])
    if kind == "spectral":
        return oracle.check_spectral(res)
    return oracle.check_multiplier(spec, res["verdict"])


# ---------------------------------------------------------------------------
# cli_cold: the documents `meanlab --emit-examples` writes
# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from meanlab.cli import main; sys.argv[0] = 'meanlab'; main()"

_SUBCOMMANDS = {"measure": ("classify", "weakmean"), "multiplier": ("multiplier",),
                "lln": ("lln",), "maxent": ("maxent",), "axioms": ("axioms",),
                "spectral": ("spectral",)}


def cli_pairs(docs_dir: str) -> list[tuple[str, str]]:
    """(document, subcommand) for every emitted document; measure documents
    run under both classify and weakmean."""
    pairs = []
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".json"):
            for sub in _SUBCOMMANDS[name.split("_", 1)[0]]:
                pairs.append((name, sub))
    return pairs
