"""Command-line front end: JSON documents in, JSON reports and CSV series out.

Subcommands: classify, weakmean, multiplier, lln, maxent, axioms, spectral.
Every run echoes its configuration and seed into the report; identical
configuration reproduces identical result payloads.  Exit status is 0 on
success, 2 when the only findings are undetermined verdicts, and 1 on
errors (with a machine-readable error object written to the output
directory and stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .axioms import AxiomId, builtin_statistic, check_axiom
from .genmean import (DEFAULT_C_GRID, ExpTiltMultiplier, TruncationSchedule,
                      VerdictPolicy, WindowMultiplier, classify_taxonomy,
                      mean_ladder, multiplier_mean)
from .lln import (build_sampler, cauchy_stability_demo, running_mean_trajectory,
                  wlln_experiment)
from .maxent import (FiniteObservable, InfeasibleTargetError, MaxEntProblem,
                     RedundantObservableError, maxent_solve)
from .measures import MeasureError, measure_from_document
from .spectral import (build_bridge, bridge_analyze, induced_measure,
                       pos_neg_split, qm_mean, qm_variance)

__all__ = ["main"]


class SchemaError(ValueError):
    """Input document violates the strict schema."""


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    extra = set(obj) - required - optional
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(payload: dict, **kw) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of writing a
    token that JSON parsers reject."""
    return json.dumps(payload, sort_keys=True, allow_nan=False, **kw)


def _write_json(path: Path, payload: dict):
    _atomic_write(path, _json_text(payload, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating))
                              else str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _verdict_dict(v) -> dict:
    return {k: val for k, val in asdict(v).items() if val is not None}


def _series_rows(series):
    return [(k, series.radii[k], series.values[k], series.masses[k])
            for k in range(len(series.radii))]


def _ladder_dict(ladder) -> dict:
    return {
        "ordinary": ladder.ordinary_kind,
        "ordinary_value": ladder.ordinary_value,
        "weak": ladder.weak_value,
        "doubly_weak": ladder.doubly_weak_value,
        "taxonomy_case": ladder.taxonomy_case,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, warnings, csv files dict)
# ---------------------------------------------------------------------------

def _load_measure(doc: dict, where: str = "document"):
    _require_keys(doc, {"measure"}, set(), where)
    return measure_from_document(doc["measure"])


def _run_classify(doc, args, schedule, policy):
    measure = _load_measure(doc, "classify document")
    report = classify_taxonomy(measure, args.c_grid or DEFAULT_C_GRID, schedule, policy)
    results = {
        "case": report.case,
        "per_center": {repr(c): _verdict_dict(v) for c, v in report.per_center.items()},
        "c_star": report.c_star,
        "c_threshold": report.c_threshold,
        "threshold_uncertainty": report.threshold_uncertainty,
        "common_value": report.common_value,
        "horizon": report.horizon,
    }
    warnings = list(report.diagnostics)
    csvs = {f"series_c{c:+g}.csv": (["k", "M", "partial_mean", "window_mass"],
                                    _series_rows(series))
            for c, series in report.series.items()}
    undetermined = report.case == "Undetermined"
    return results, warnings, csvs, undetermined


def _run_weakmean(doc, args, schedule, policy):
    measure = _load_measure(doc, "weakmean document")
    ladder = mean_ladder(measure, schedule, policy)
    tail = ladder.tail
    results = {
        "ladder": _ladder_dict(ladder),
        "tail_tends_to_zero": tail.tends_to_zero,
        "horizon": ladder.horizon,
    }
    csvs = {"tail_curve.csv": (["n", "n_times_tail_probability"],
                               list(zip(tail.ns, tail.values)))}
    warnings = []
    undetermined = ladder.ordinary_kind == "undetermined"
    if undetermined:
        warnings.append("ordinary-mean verdict undetermined at horizon")
    return results, warnings, csvs, undetermined


def _run_multiplier(doc, args, schedule, policy):
    _require_keys(doc, {"measure", "multiplier"}, {"lambdas"}, "multiplier document")
    measure = measure_from_document(doc["measure"])
    mdoc = doc["multiplier"]
    _require_keys(mdoc, {"kind"}, {"c"}, "multiplier object")
    kind = mdoc["kind"]
    c = float(mdoc.get("c", 0.0))
    if kind == "window":
        family = WindowMultiplier(c)
    elif kind == "exp_tilt":
        family = ExpTiltMultiplier(c)
    else:
        raise SchemaError(f"multiplier kind must be 'window' or 'exp_tilt', got {kind!r}")
    lams = doc.get("lambdas")
    series = multiplier_mean(measure, family, lams, schedule, policy)
    results = {
        "family": series.family_kind,
        "c": series.c,
        "verdict": _verdict_dict(series.verdict),
    }
    csvs = {"multiplier_series.csv": (["k", "lambda", "regularized_mean"],
                                      [(k, series.lambdas[k], series.values[k])
                                       for k in range(len(series.lambdas))])}
    undetermined = series.verdict.kind == "undetermined"
    return results, [], csvs, undetermined


_LLN_KEYS = {
    "wlln": {"m", "epsilon", "n_values", "replications"},
    "stability": {"n", "replications"},
    "trajectory": {"n"},
}


def _run_lln(doc, args, schedule, policy):
    experiment = doc.get("experiment")
    if experiment not in _LLN_KEYS:
        raise SchemaError(f"lln experiment must be one of {sorted(_LLN_KEYS)}, "
                          f"got {experiment!r}")
    _require_keys(doc, {"measure", "experiment"} | _LLN_KEYS[experiment],
                  set(), f"lln {experiment} document")
    measure = measure_from_document(doc["measure"])
    sampler = build_sampler(measure, seed=args.seed)
    csvs = {}
    if experiment == "wlln":
        rep = wlln_experiment(sampler, doc["m"], doc["epsilon"],
                              doc["n_values"], doc["replications"])
        results = asdict(rep)
    elif experiment == "stability":
        rep = cauchy_stability_demo(sampler, doc["n"], doc["replications"])
        results = asdict(rep)
    else:
        ns, means = running_mean_trajectory(sampler, doc["n"])
        results = {"n": int(doc["n"]), "final_running_mean": float(means[-1]),
                   "seed": sampler.master_seed}
        csvs["trajectory.csv"] = (["n", "running_mean"], list(zip(ns, means)))
    if sampler.truncation_bias:
        results["truncation_bias"] = sampler.truncation_bias
    return results, [], csvs, False


def _run_maxent(doc, args, schedule, policy):
    _require_keys(doc, {"n", "observables", "targets"}, {"base"}, "maxent document")
    problem = MaxEntProblem(
        n=int(doc["n"]),
        observables=tuple(FiniteObservable(tuple(g)) for g in doc["observables"]),
        targets=tuple(float(a) for a in doc["targets"]),
        base=doc.get("base", "bits"),
    )
    solution = maxent_solve(problem)
    results = {
        "betas": list(solution.betas),
        "log_partition": solution.log_partition,
        "distribution": list(solution.distribution.probabilities),
        "entropy": solution.entropy,
        "base": solution.base,
        "residuals": list(solution.residuals),
        "newton_steps": solution.newton_steps,
    }
    return results, [], {}, False


def _run_axioms(doc, args, schedule, policy):
    _require_keys(doc, {"statistics"}, {"axioms", "trials"}, "axioms document")
    axioms = ([AxiomId[a] for a in doc["axioms"]] if "axioms" in doc
              else list(AxiomId))
    trials = int(doc.get("trials", 1000))
    results = {}
    for name in doc["statistics"]:
        stat = builtin_statistic(name)
        per = {}
        for ax in axioms:
            rep = check_axiom(stat, ax, trials=trials, seed=args.seed)
            entry = {"passed": rep.passed, "trials": rep.trials}
            if not rep.passed:
                entry["residual"] = rep.residual
                entry["counterexample"] = {
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in rep.counterexample.items()}
            per[ax.name] = entry
        results[name] = per
    return results, [], {}, False


def _run_spectral(doc, args, schedule, policy):
    if "bridge" in doc:
        _require_keys(doc, {"bridge"}, set(), "spectral document")
        bdoc = doc["bridge"]
        _require_keys(bdoc, {"family"}, {"params"}, "bridge object")
        bridge = build_bridge(bdoc["family"], **bdoc.get("params", {}))
        report = bridge_analyze(bridge, schedule, policy)
        results = {
            "family": bridge.family,
            "params": bridge.params,
            "in_dom_a": bridge.in_dom_a,
            "in_dom_e": bridge.in_dom_e,
            "in_dom_f": bridge.in_dom_f,
            "mean_exists": report.mean_exists,
            "variance_exists": report.variance_exists,
            "analytic_mean": bridge.analytic_mean,
            "ladder": _ladder_dict(report.ladder),
            "partial_sums": report.partial_sums,
        }
        return results, [], {}, False
    _require_keys(doc, {"matrix", "state"}, set(), "spectral document")
    matrix = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    state = np.array([complex(re, im) for re, im in doc["state"]])
    mu = qm_mean(matrix, state)
    var = qm_variance(matrix, state)
    comb = induced_measure(matrix, state)
    E, F = pos_neg_split(matrix)
    e_term = float(np.linalg.norm(E @ state) ** 2)
    f_term = float(np.linalg.norm(F @ state) ** 2)
    atoms = comb.atoms_within(float("inf"))
    results = {
        "mean": mu,
        "variance": var,
        "split_mean": e_term - f_term,
        "split_identity_residual": abs(mu - (e_term - f_term)),
        "induced_measure": [{"location": a.location, "weight": a.weight}
                            for a in atoms],
    }
    return results, [], {}, False


_HANDLERS = {
    "classify": _run_classify,
    "weakmean": _run_weakmean,
    "multiplier": _run_multiplier,
    "lln": _run_lln,
    "maxent": _run_maxent,
    "axioms": _run_axioms,
    "spectral": _run_spectral,
}


# ---------------------------------------------------------------------------
# Canonical example documents
# ---------------------------------------------------------------------------

def _example_documents() -> dict[str, dict]:
    measures = {
        "gaussian": {"family": "gaussian", "mu": 0.0, "sigma": 1.0},
        "cauchy": {"family": "cauchy", "loc": 0.0, "scale": 1.0},
        "power_tail": {"family": "power_tail", "a": 1.5, "b": 1.8},
        "comb_ex1": {"family": "comb_ex1"},
        "comb_ex2": {"family": "comb_ex2"},
        "comb_ex4": {"family": "comb_ex4"},
        "comb_ex5": {"family": "comb_ex5"},
        "negate_comb_ex4": {"family": "negate", "inner": {"family": "comb_ex4"}},
    }
    docs = {f"measure_{name}.json": {"measure": m} for name, m in measures.items()}
    docs["multiplier_exp_tilt_cauchy.json"] = {
        "measure": measures["cauchy"],
        "multiplier": {"kind": "exp_tilt", "c": 3.0},
    }
    docs["multiplier_window_cauchy.json"] = {
        "measure": measures["cauchy"],
        "multiplier": {"kind": "window", "c": 0.0},
    }
    docs["lln_wlln_cauchy.json"] = {
        "measure": measures["cauchy"], "experiment": "wlln",
        "m": 0.0, "epsilon": 1.0, "n_values": [100, 1000, 10000],
        "replications": 1000,
    }
    docs["lln_stability_cauchy.json"] = {
        "measure": measures["cauchy"], "experiment": "stability",
        "n": 100, "replications": 5000,
    }
    docs["maxent_unconstrained.json"] = {
        "n": 6, "observables": [], "targets": [], "base": "bits"}
    docs["maxent_mean_4p5.json"] = {
        "n": 6, "observables": [[1, 2, 3, 4, 5, 6]], "targets": [4.5],
        "base": "bits"}
    docs["axioms_mean_median.json"] = {
        "statistics": ["mean", "median", "convex:0.5"], "trials": 2000}
    docs["spectral_pauli_x.json"] = {
        "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "state": [[1.0, 0.0], [0.0, 0.0]],
    }
    docs["spectral_bridge_dyadic.json"] = {
        "bridge": {"family": "dyadic_symmetric"}}
    docs["spectral_bridge_power_law_p3.json"] = {
        "bridge": {"family": "power_law_integer", "params": {"p": 3.0}}}
    return docs


def _emit_examples(out_dir: Path) -> None:
    for name, doc in _example_documents().items():
        _write_json(out_dir / name, doc)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_schedule(text: str) -> TruncationSchedule:
    try:
        m0, ratio, count = text.split(",")
        return TruncationSchedule(m0=float(m0), ratio=float(ratio), count=int(count))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"--schedule expects M0,r,K (got {text!r}): {exc}")


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"--c-grid expects comma-separated numbers: {exc}")


_POLICY_FIELDS = {"window": int, "conv_scale": float, "div_threshold": float,
                  "jitter": float, "max_probes": int, "tail_tol": float}


def _apply_tols(policy: VerdictPolicy, pairs: list[str]) -> VerdictPolicy:
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        if name not in _POLICY_FIELDS:
            raise SchemaError(f"unknown tolerance {name!r}; "
                              f"known: {sorted(_POLICY_FIELDS)}")
        policy = replace(policy, **{name: _POLICY_FIELDS[name](value)})
    return policy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanlab",
        description="Generalized means of heavy-tailed probability measures")
    parser.add_argument("--emit-examples", action="store_true",
                        help="write canonical example documents to --out and exit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="subcommand")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON document path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--schedule", default=None, metavar="M0,r,K")
        p.add_argument("--c-grid", dest="c_grid", default=None, metavar="a,b,...")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
    return parser


def exit_code_for(undetermined_only: bool) -> int:
    return 2 if undetermined_only else 0


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    if args.emit_examples:
        _emit_examples(out_dir)
        print(f"wrote {len(_example_documents())} example documents to {out_dir}")
        return 0
    if not args.subcommand:
        parser.print_help()
        return 1

    started = time.perf_counter()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        schedule = _parse_schedule(args.schedule) if args.schedule \
            else TruncationSchedule()
        policy = _apply_tols(VerdictPolicy(), args.tol)
        if args.c_grid:
            args.c_grid = _parse_grid(args.c_grid)
        results, warnings, csvs, undetermined = _HANDLERS[args.subcommand](
            doc, args, schedule, policy)
        report = {
            "tool": {"name": "meanlab", "version": __version__},
            "subcommand": args.subcommand,
            "config": {
                "input": str(args.input),
                "schedule": args.schedule,
                "c_grid": list(args.c_grid) if args.c_grid else None,
                "tol": list(args.tol),
                "document": doc,
            },
            "seed": args.seed,
            "results": results,
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - started,
        }
        report_text = _json_text(report, indent=2) + "\n"
        stdout_line = _json_text({"results": results, "warnings": warnings})
    except (SchemaError, MeasureError, InfeasibleTargetError,
            RedundantObservableError, ValueError, ArithmeticError, OSError,
            json.JSONDecodeError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)},
                 "subcommand": args.subcommand}
        _write_json(out_dir / f"{args.subcommand}_error.json", error)
        print(_json_text(error))
        return 1

    _atomic_write(out_dir / f"{args.subcommand}_report.json", report_text)
    for name, (header, rows) in csvs.items():
        _write_csv(out_dir / name, header, rows)
    print(stdout_line)
    return exit_code_for(undetermined)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
