"""Per-operation correctness oracle: what theory says each output must be.

Every check returns ``None`` when the output agrees with theory and a short
reason otherwise.  An ``Undetermined`` verdict never counts as a failure;
a confident verdict that contradicts theory always does.  Expected values
come from closed forms computed here (mpmath for zeta values, the error
function for gaussian laws), never from meanlab itself.
"""

from __future__ import annotations

import json
import math
import re

GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)  # meanlab's default center grid

# Defects of the parent code, each filed under a key that names the family
# and, where the defect covers only part of it, the region of inputs it
# covers (``region`` below).  A failure is counted in ``failed`` like any
# other; a failure whose key is not listed here, or whose reason does not
# match the listed signature, also makes the run report ``correct: false``,
# so a change that breaks inputs that used to be right cannot go unnoticed.
# Each region was mapped by sweeping its parameters on the parent code; the
# bounds leave a margin beyond the last failing input.
KNOWN_DEFECTS = {
    "cauchy+far": "|loc| >= 5e5 * scale: the one-sided partial means grow by "
                  "about scale per window block, below the relative tolerance "
                  "1e-6 |loc|, so one side reads converged (cauchy().shift(1e6) "
                  "gets ordinary minus_inf; cauchy().shift(1e12) is case I)",
    "gaussian+far": "|mu| >= 5e4: the tail curve's last window starts at "
                    "n = 10^(29/6) ~ 6.8e4, so n P(|X| > n) does not vanish there "
                    "and mean_ladder raises 'ladder violation' or misreads the mean",
    "power_tail+slow": "a = b < 1.6 (off-zero centers converge too slowly) or a != b "
                       "with a partial mean below the 1e4 divergence threshold at "
                       "the 2.7e10 horizon: divergence is read as case I or II",
    "integer_power_comb+p<2.7": "p <= 2 gives NaN window moments (zeta(1, .) is "
                                "inf - inf); p in (2, 2.62] is case I with ladder "
                                "plus_inf, integer_power_comb(2.5) among them",
    "bridge:power_law_integer+p<2.7": "as integer_power_comb+p<2.7: NaN for p <= 2, "
                                      "and bridge_analyze(p = 2.5) raises ArithmeticError",
    "comb_ex4+outward_shift": "a shift toward the comb's diverging side (the "
                              "wrapped law is m X + a with a * m > 0): block minima "
                              "drift with the shift times the window mass and are "
                              "read as divergence at every center",
    "comb_ex5+outward_shift": "as comb_ex4+outward_shift",
    "multiplier:exp_tilt:power_tail": "every exponent pair: the lambda schedule stops "
                                      "at 1e-4, where the divergence is still below the "
                                      "1e4 threshold, so it reads as bounded oscillation",
    "multiplier:window:power_tail+slow": "as power_tail+slow: the window family is "
                                         "truncation, with the same horizon",
    "maxent": "signature only: Newton stalls short of feas_tol = 1e-10 with a moment "
              "gap below 1e-6, where the Armijo test no longer sees a decrease of the "
              "dual in double precision (84 of 9,600 swept problems, gaps 1e-10 to 1.5e-8)",
}


def _newton_stall(reason: str) -> bool:
    m = re.search(r"Newton did not reach tolerance .* remaining moment gap (\S+)$", reason)
    return m is not None and float(m.group(1)) < 1e-6


# A failure under these keys is known only when its reason matches.
KNOWN_SIGNATURES = {"maxent": _newton_stall}

HORIZON = 1.1 * 1.5 ** 59  # meanlab's default truncation horizon
DIV_THRESHOLD = 1e4        # and its divergence threshold


def _power_tail_constant(e: float) -> float:
    """C with int_0^inf dx / (1 + C x^e) = 1/2."""
    return (2.0 * math.pi / (e * math.sin(math.pi / e))) ** e


def power_tail_gap(a: float, b: float) -> float:
    """Leading term of the gap between the two one-sided partial means of
    power_tail(a, b) at the horizon: int_0^H x dx / (1 + C x^e) for e = a, b."""

    def lead(e):
        return HORIZON ** (2.0 - e) / (_power_tail_constant(e) * (2.0 - e))

    return abs(lead(a) - lead(b))


def power_tail_slow(a: float, b: float) -> bool:
    """Inputs of the power_tail+slow region (see KNOWN_DEFECTS)."""
    if a == b:
        return a < 1.6
    return power_tail_gap(a, b) < 2.0 * DIV_THRESHOLD


def region(spec: dict) -> str:
    """The suffix of a known defect's region that ``spec`` lies in, or ''."""
    family, params = spec.get("family"), spec.get("params", {})
    if family in ("cauchy", "gaussian") and spec["kind"] == "verdict":
        _, center, scale = law(spec)
        far = abs(center) >= (5e5 * scale if family == "cauchy" else 5e4)
        return "+far" if far else ""
    if family == "power_tail" and spec.get("multiplier") != "exp_tilt":
        return "+slow" if power_tail_slow(params["a"], params["b"]) else ""
    if family in ("integer_power_comb", "power_law_integer"):
        return "+p<2.7" if params["p"] < 2.7 else ""
    if family in ("comb_ex4", "comb_ex5"):
        a, m = affine(spec.get("wrap", ()))
        return "+outward_shift" if a * m > 0 else ""
    return ""


def is_known(key: str, reason: str) -> bool:
    sig = KNOWN_SIGNATURES.get(key)
    return key in KNOWN_DEFECTS and (sig is None or sig(reason))


def strict_json(obj) -> str | None:
    """Serialise like a report; NaN or infinity is a failure."""
    try:
        json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    return None


def _close(got, want, tol) -> bool:
    return got is not None and abs(got - want) <= tol


def _tol(value: float, scale: float = 0.0) -> float:
    return 1e-6 * max(1.0, abs(value)) + 1e-6 * scale


# ---------------------------------------------------------------------------
# Measures: expected taxonomy, ladder and tail verdicts
# ---------------------------------------------------------------------------

def affine(wraps) -> tuple[float, float]:
    """(a, m) such that the wrapped measure is the law of m * X + a."""
    a, m = 0.0, 1.0
    for w in wraps:
        if w[0] == "shift":
            a += w[1]
        elif w[0] == "scale":
            a, m = a * w[1], m * w[1]
        else:
            a, m = -a, -m
    return a, m


def ipc_mean(p: float) -> float:
    import mpmath  # only the dense-comb oracle needs it
    return float(mpmath.zeta(p - 1) / mpmath.zeta(p))


def _comb_kind(family: str, x0: float):
    if family == "comb_ex1":
        return ("osc",)
    if family == "comb_ex2":
        return ("conv", 0.0) if x0 == 0.0 else ("osc",)
    if family == "comb_ex4":  # both strands cross together at x0 = 0
        return ("div", 1) if x0 >= 0.0 else ("osc",)
    if family == "comb_ex5":  # positive atoms sit 1/n further out
        return ("div", 1) if x0 > 0.0 else ("osc",)
    raise ValueError(family)


def _case(kinds: dict) -> dict:
    """Five-case map of per-center behaviours (written apart from meanlab's)."""
    conv = [c for c in GRID if kinds[c][0] == "conv"]
    osc = [c for c in GRID if kinds[c][0] == "osc"]
    up = [c for c in GRID if kinds[c] == ("div", 1)]
    down = [c for c in GRID if kinds[c] == ("div", -1)]
    if len(conv) == len(GRID):
        return {"case": "III_finite", "common": kinds[0.0][1]}
    if len(conv) == 1 and len(osc) == len(GRID) - 1:
        return {"case": "II", "c_star": conv[0]}
    if len(up) == len(GRID):
        return {"case": "III_plus_inf"}
    if len(down) == len(GRID):
        return {"case": "III_minus_inf"}
    if up and osc and not down and not conv and min(up) > max(osc):
        return {"case": "IV"}
    if down and osc and not up and not conv and max(down) < min(osc):
        return {"case": "V"}
    if len(osc) == len(GRID):
        return {"case": "I"}
    raise ValueError(f"no case for {kinds}")


def expect_measure(spec: dict) -> dict:
    """Theory for one measure spec: taxonomy, ladder and tail verdicts."""
    family, params = spec["family"], spec.get("params", {})
    a, m = affine(spec.get("wrap", ()))
    sign = 1 if m > 0 else -1
    scale = 0.0
    if family.startswith("comb_"):
        kinds = {}
        for c in GRID:
            k = _comb_kind(family, (c - a) / m)
            kinds[c] = (("conv", m * k[1] + a) if k[0] == "conv"
                        else ("div", k[1] * sign) if k[0] == "div" else k)
        exp = _case(kinds)
        exp.update(ordinary="none", tail=False)
    else:
        if family == "gaussian":
            mean, scale = params.get("mu", 0.0), params.get("sigma", 1.0)
            base = {"center": ("conv", mean), "ordinary": "finite", "tail": True}
        elif family == "cauchy":
            mean, scale = params.get("loc", 0.0), params.get("scale", 1.0)
            base = {"center": ("conv", mean), "ordinary": "none", "tail": False}
        elif family == "power_tail":
            pa, pb, mean = params["a"], params["b"], 0.0
            center = ("conv", 0.0) if pa == pb else ("div", 1 if pa < pb else -1)
            base = {"center": center, "ordinary": "none", "tail": False}
        elif family == "integer_power_comb":
            p = params["p"]
            if p > 2.0:
                mean = ipc_mean(p)
                base = {"center": ("conv", mean), "ordinary": "finite", "tail": True}
            else:
                base = {"center": ("div", 1), "ordinary": "plus_inf", "tail": False}
        elif family == "empirical":
            mean = math.fsum(spec["samples"]) / len(spec["samples"])
            scale = float(max(abs(x) for x in spec["samples"]))
            base = {"center": ("conv", mean), "ordinary": "finite", "tail": True}
        else:
            raise ValueError(family)
        k = base["center"]
        k = ("conv", m * k[1] + a) if k[0] == "conv" else ("div", k[1] * sign)
        exp = _case({c: k for c in GRID})
        ordinary = base["ordinary"]
        if ordinary == "plus_inf" and sign < 0:
            ordinary = "minus_inf"
        exp.update(ordinary=ordinary, tail=base["tail"])
        if ordinary == "finite":
            exp["ordinary_value"] = exp["weak"] = exp["common"]
    exp["doubly"] = exp.get("common")
    exp["tol"] = _tol(exp.get("common") or 0.0, abs(m) * scale)
    return exp


def check_taxonomy(exp: dict, res: dict) -> str | None:
    case = res["case"]
    if case == "Undetermined":
        return None
    if case != exp["case"]:
        return f"taxonomy case {case}, theory {exp['case']}"
    if case == "II" and res["c_star"] != exp["c_star"]:
        return f"c* {res['c_star']}, theory {exp['c_star']}"
    if case == "III_finite" and not _close(res["common_value"], exp["common"], exp["tol"]):
        return f"common value {res['common_value']!r}, theory {exp['common']!r}"
    return None


def check_ladder(exp: dict, ladder: dict, center_undetermined: bool = False) -> str | None:
    kind = ladder["ordinary"]
    if kind != "undetermined":
        if kind != exp["ordinary"]:
            return f"ordinary mean {kind}, theory {exp['ordinary']}"
        if kind == "finite" and not _close(ladder["ordinary_value"],
                                           exp["ordinary_value"], exp["tol"]):
            return f"ordinary value {ladder['ordinary_value']!r}, theory {exp['ordinary_value']!r}"
    weak = exp.get("weak")
    if not center_undetermined:
        if weak is None and ladder["weak"] is not None:
            return f"weak mean {ladder['weak']!r}, theory none"
        if weak is not None and not _close(ladder["weak"], weak, exp["tol"]):
            return f"weak mean {ladder['weak']!r}, theory {weak!r}"
    if ladder["taxonomy_case"] != "Undetermined":
        doubly = exp["doubly"]
        if (doubly is None) != (ladder["doubly_weak"] is None) or (
                doubly is not None and not _close(ladder["doubly_weak"], doubly, exp["tol"])):
            return f"doubly weak mean {ladder['doubly_weak']!r}, theory {doubly!r}"
    return None


def check_tail(exp: dict, tends_to_zero: bool) -> str | None:
    if tends_to_zero != exp["tail"]:
        return f"tail curve tends_to_zero={tends_to_zero}, theory {exp['tail']}"
    return None


def expect_bridge(family: str, params: dict) -> dict:
    """A diagonal bridge has the verdicts of its induced comb."""
    if family == "dyadic_symmetric":
        return expect_measure({"family": "comb_ex2"})
    return expect_measure({"family": "integer_power_comb", "params": params})


def check_bridge_flags(params: dict, res: dict) -> str | None:
    p = params.get("p")
    if p is None:
        return None
    if res["mean_exists"] != (p > 2.0) or res["variance_exists"] != (p > 3.0):
        return "bridge domain flags disagree with p"
    if p > 2.0 and not _close(res["analytic_mean"], ipc_mean(p), _tol(ipc_mean(p))):
        return f"bridge analytic mean {res['analytic_mean']!r}"
    return None


def check_verdict(spec: dict, res: dict) -> str | None:
    """One verdicts operation: taxonomy, ladder and tail curve."""
    if spec["kind"] == "bridge":
        exp = expect_bridge(spec["family"], spec["params"])
        bad = check_bridge_flags(spec["params"], res)
        if bad:
            return bad
    else:
        exp = expect_measure(spec)
    center = res.get("per_center", {}).get(repr(0.0), {})
    return (check_taxonomy(exp, res)
            or check_ladder(exp, res["ladder"], center.get("kind") == "undetermined")
            or check_tail(exp, res["tail_tends_to_zero"]))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def law(spec: dict) -> tuple[str, float, float]:
    """(family, center, scale) of a wrapped cauchy or gaussian law."""
    a, m = affine(spec.get("wrap", ()))
    p = spec.get("params", {})
    if spec["family"] == "cauchy":
        return "cauchy", m * p.get("loc", 0.0) + a, abs(m) * p.get("scale", 1.0)
    return "gaussian", m * p.get("mu", 0.0) + a, abs(m) * p.get("sigma", 1.0)


def deviation_probability(family: str, scale: float, eps: float, n: int) -> float:
    """P(|S_n / n - center| > eps) for iid draws of the law."""
    if family == "cauchy":  # S_n / n is again Cauchy with the same scale
        return 1.0 - 2.0 / math.pi * math.atan(eps / scale)
    return math.erfc(eps * math.sqrt(n) / (scale * math.sqrt(2.0)))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ks_bound(r: int) -> float:
    # two-sample KS critical value at alpha = 1e-6 for equal sample sizes
    return math.sqrt(-math.log(0.5e-6) / 2.0) * math.sqrt(2.0 / r)


def check_wlln(spec: dict, res: dict) -> str | None:
    family, _, scale = law(spec)
    r = res["replications"]
    for n, f in zip(res["n_values"], res["fractions"]):
        p = deviation_probability(family, scale, spec["epsilon"], n)
        if abs(f - p) > 5.0 * math.sqrt(p * (1 - p) / r) + 2.0 / r:
            return f"deviation fraction {f} at n={n}, theory {p:.4g}"
    return None


def check_stability(spec: dict, res: dict) -> str | None:
    family, _, _ = law(spec)
    n, r, d = res["n"], res["replications"], res["distance"]
    if family == "cauchy":
        want = 0.0
    else:  # sup |Phi(sqrt(n) x) - Phi(x)| is attained at x^2 = ln n / (n - 1)
        x = math.sqrt(math.log(n) / (n - 1))
        want = _phi(math.sqrt(n) * x) - _phi(x)
    if abs(d - want) > _ks_bound(r):
        return f"stability distance {d}, theory {want:.4g}"
    return None


def check_trajectory(spec: dict, res: dict) -> str | None:
    if not _close(res["final_running_mean"], res["fsum_mean"],
                  1e-12 * max(1.0, res["mean_abs"])):
        return "running mean differs from the fsum of the same draws"
    family, center, scale = law(spec)
    if family == "gaussian" and abs(res["final_running_mean"] - center) > 6 * scale / math.sqrt(res["n"]):
        return "gaussian running mean farther than 6 sigma/sqrt(n) from the mean"
    return None


def check_maxent(spec: dict, res: dict) -> str | None:
    p = res["distribution"]
    if abs(math.fsum(p) - 1.0) > 1e-12 or min(p) <= 0.0:
        return "distribution is not a positive probability vector"
    for row, target in zip(spec["observables"], spec["targets"]):
        if abs(math.fsum(pi * g for pi, g in zip(p, row)) - target) > 1e-8:
            return "moment constraint violated"
    h = -math.fsum(pi * math.log(pi) for pi in p)
    if spec.get("base", "bits") == "bits":
        h /= math.log(2.0)
    if abs(h - res["entropy"]) > 1e-9:
        return f"entropy {res['entropy']}, recomputed {h}"
    # exponential family: log p_i = -beta . g(i) - log Z
    for i, pi in enumerate(p):
        expo = -math.fsum(b * row[i] for b, row in zip(res["betas"], spec["observables"]))
        if abs(math.log(pi) - expo + res["log_partition"]) > 1e-8:
            return "distribution is not of exponential-family form"
    return None


# The mean passes all nine axioms; the median fails condensation and
# additivity and passes the rest of this table.
AXIOM_TABLE = {
    "mean": {ax: True for ax in ("H", "S", "T", "COND", "PH", "NN", "P", "SP", "ADD")},
    "median": {"H": True, "S": True, "T": True, "PH": True, "NN": True,
               "COND": False, "ADD": False},
}


def check_axiom(stat: str, axiom: str, passed: bool) -> str | None:
    want = AXIOM_TABLE[stat][axiom]
    if passed != want:
        return f"{stat} {'failed' if want else 'passed'} {axiom}"
    return None


def check_spectral(res: dict) -> str | None:
    tol = 1e-9 * max(1.0, res["norm"])
    if abs(res["weight_sum"] - 1.0) > 1e-10:
        return "induced measure weights do not sum to 1"
    if abs(res["measure_mean"] - res["mean"]) > tol:
        return "induced measure mean differs from <A psi, psi>"
    if abs(res["measure_variance"] - res["variance"]) > tol * max(1.0, res["norm"]):
        return "induced measure variance differs from ||(A - mu) psi||^2"
    if res["split_residual"] > tol or abs(res["split_mean"] - res["mean"]) > tol:
        return "A = E^2 - F^2 split identity fails"
    return None


def check_multiplier(spec: dict, verdict: dict) -> str | None:
    kind = verdict["kind"]
    if kind == "undetermined":
        return None
    params, c = spec["params"], spec["c"]
    if spec["family"] == "cauchy":
        # exp_tilt on the standard Cauchy converges to its tilt c; the
        # window family reproduces truncation, whose limit is the location.
        want = c if spec["multiplier"] == "exp_tilt" else params["loc"]
        if kind != "converged" or not _close(verdict["value"], want,
                                             1e-2 * max(1.0, abs(want))):
            return f"{spec['multiplier']} verdict {kind} {verdict.get('value')!r}, theory {want}"
        return None
    a, b = params["a"], params["b"]
    want = "converged" if a == b else "diverges_plus" if a < b else "diverges_minus"
    if kind != want or (want == "converged" and abs(verdict["value"]) > 1e-6):
        return f"{spec['multiplier']} verdict {kind}, theory {want}"
    return None


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def measure_spec(doc: dict) -> dict:
    """A CLI measure document as a spec: base family, params and wraps."""
    family = doc["family"]
    if family in ("shift", "scale", "negate"):
        inner = measure_spec(doc["inner"])
        step = (["shift", doc["a"]] if family == "shift" else
                ["scale", doc["factor"]] if family == "scale" else ["negate"])
        inner["wrap"] = inner.get("wrap", []) + [step]
        return inner
    params = {k: v for k, v in doc.items() if k != "family"}
    return {"family": family, "params": params, "wrap": []}


def check_cli(doc: dict, subcommand: str, results: dict) -> str | None:
    if subcommand in ("classify", "weakmean"):
        exp = expect_measure(measure_spec(doc["measure"]))
        if subcommand == "classify":
            return check_taxonomy(exp, results)
        return (check_ladder(exp, results["ladder"])
                or check_tail(exp, results["tail_tends_to_zero"]))
    if subcommand == "multiplier":
        mspec = measure_spec(doc["measure"])
        mspec.update(multiplier=doc["multiplier"]["kind"], c=doc["multiplier"].get("c", 0.0))
        return check_multiplier(mspec, results["verdict"])
    if subcommand == "lln":
        spec = measure_spec(doc["measure"])
        if doc["experiment"] == "wlln":
            spec["epsilon"] = doc["epsilon"]
            return check_wlln(spec, results)
        if doc["experiment"] == "stability":
            return check_stability(spec, results)
        return None
    if subcommand == "maxent":
        return check_maxent(doc, results)
    if subcommand == "axioms":
        for stat, per in results.items():
            for axiom, entry in per.items():
                if stat in AXIOM_TABLE and axiom in AXIOM_TABLE[stat]:
                    bad = check_axiom(stat, axiom, entry["passed"])
                    if bad:
                        return bad
        return None
    if subcommand == "spectral":
        if "bridge" in doc:
            params = doc["bridge"].get("params", {})
            exp = expect_bridge(doc["bridge"]["family"], params)
            ladder = results["ladder"]
            return (check_bridge_flags(params, results)
                    or check_taxonomy(exp, {"case": ladder["taxonomy_case"],
                                            "c_star": exp.get("c_star"),
                                            "common_value": ladder["doubly_weak"]})
                    or check_ladder(exp, ladder))
        weights = [a["weight"] for a in results["induced_measure"]]
        locs = [a["location"] for a in results["induced_measure"]]
        mean = math.fsum(w * x for w, x in zip(weights, locs))
        var = math.fsum(w * (x - mean) ** 2 for w, x in zip(weights, locs))
        if abs(math.fsum(weights) - 1.0) > 1e-10 or abs(mean - results["mean"]) > 1e-9 \
                or abs(var - results["variance"]) > 1e-9 \
                or results["split_identity_residual"] > 1e-9:
            return "spectral identities fail"
        return None
    return f"no oracle for subcommand {subcommand}"
