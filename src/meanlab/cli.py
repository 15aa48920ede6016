"""Command-line front end: JSON documents in, JSON reports and CSV series out.

Subcommands: classify, weakmean, multiplier, lln, maxent, axioms, spectral.
Every run echoes its configuration and seed into the report; identical
configuration reproduces identical result payloads.  Exit status is 0 on
success, 2 when the only findings are undetermined verdicts, and 1 on
errors, with a machine-readable error object on stdout and, once the
command line has parsed, in the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Optional

import meanlab as ml

__all__ = ["main"]


class SchemaError(ValueError):
    """Input document violates the strict schema."""


class _Parser(argparse.ArgumentParser):
    """Usage on stderr, then SchemaError: status 2 means undetermined findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(message)


def _json(*types, of=None):
    """A test for JSON values of ``types`` (a bool is no number) whose
    entries, when ``of`` is given, all pass ``of``."""
    return lambda v: (isinstance(v, types) and not isinstance(v, bool)
                      and (of is None or all(map(of, v))))


# The lists the handlers unpack; the library checks the values inside them.
_NUMBERS = _json(list, of=_json(int, float))
_PAIRS = _json(list, of=lambda v: _NUMBERS(v) and len(v) == 2)
_KINDS = {"a list of numbers": _NUMBERS,
          "a list of strings": _json(list, of=_json(str)),
          "a list of number lists": _json(list, of=_NUMBERS),
          "a list of [re, im] pairs": _PAIRS,
          "a list of rows of [re, im] pairs": _json(list, of=_PAIRS)}


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str,
                  kinds: Optional[dict[str, str]] = None):
    """Strict keys, and each key of ``kinds`` that is present holds a JSON
    list of that kind (a key of _KINDS)."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    extra = set(obj) - required - optional
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    for key, kind in (kinds or {}).items():
        if key in obj and not _KINDS[kind](obj[key]):
            raise SchemaError(f"{where}: {key!r} must be {kind}, got {obj[key]!r}")


def _numbers(name: str, values: list) -> tuple[float, ...]:
    """A JSON number list as floats; a bad entry is refused as ``name[i]``."""
    return tuple(ml.measures._number(f"{name}[{i}]", v) for i, v in enumerate(values))


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
    import numpy as np  # loaded already by the handler that made the rows
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
    return ml.measure_from_document(doc["measure"])


def _run_classify(doc, args, schedule, policy):
    measure = _load_measure(doc, "classify document")
    report = ml.classify_taxonomy(measure, args.c_grid or ml.DEFAULT_C_GRID, schedule, policy)
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
    ladder = ml.mean_ladder(measure, schedule, policy)
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
    _require_keys(doc, {"measure", "multiplier"}, {"lambdas"}, "multiplier document",
                  {"lambdas": "a list of numbers"})
    measure = ml.measure_from_document(doc["measure"])
    mdoc = doc["multiplier"]
    _require_keys(mdoc, {"kind"}, {"c"}, "multiplier object")
    kind = mdoc["kind"]
    c = mdoc.get("c", 0.0)
    if kind == "window":
        family = ml.WindowMultiplier(c)
    elif kind == "exp_tilt":
        family = ml.ExpTiltMultiplier(c)
    else:
        raise SchemaError(f"multiplier kind must be 'window' or 'exp_tilt', got {kind!r}")
    lams = doc.get("lambdas")
    series = ml.multiplier_mean(measure, family, lams, schedule, policy)
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


_LLN_KEYS = {"wlln": {"m", "epsilon", "n_values", "replications"},
             "stability": {"n", "replications"},
             "trajectory": {"n"}}


def _run_lln(doc, args, schedule, policy):
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or experiment not in _LLN_KEYS:
        raise SchemaError(f"lln experiment must be one of {sorted(_LLN_KEYS)}, "
                          f"got {experiment!r}")
    _require_keys(doc, {"measure", "experiment"} | _LLN_KEYS[experiment], set(),
                  f"lln {experiment} document")
    measure = ml.measure_from_document(doc["measure"])
    sampler = ml.build_sampler(measure, seed=args.seed)
    csvs = {}
    if experiment == "wlln":
        rep = ml.wlln_experiment(sampler, doc["m"], doc["epsilon"],
                                 doc["n_values"], doc["replications"])
        results = asdict(rep)
    elif experiment == "stability":
        rep = ml.cauchy_stability_demo(sampler, doc["n"], doc["replications"])
        results = asdict(rep)
    else:
        ns, means = ml.running_mean_trajectory(sampler, doc["n"])
        results = {"n": doc["n"], "final_running_mean": float(means[-1]),
                   "seed": sampler.master_seed}
        csvs["trajectory.csv"] = (["n", "running_mean"], list(zip(ns, means)))
    if sampler.truncation_bias:
        results["truncation_bias"] = sampler.truncation_bias
    return results, [], csvs, False


def _run_maxent(doc, args, schedule, policy):
    _require_keys(doc, {"n", "observables", "targets"}, {"base"}, "maxent document",
                  {"observables": "a list of number lists", "targets": "a list of numbers"})
    problem = ml.MaxEntProblem(
        n=doc["n"],
        observables=tuple(ml.FiniteObservable(_numbers(f"observables[{j}]", g))
                             for j, g in enumerate(doc["observables"])),
        targets=tuple(doc["targets"]),
        base=doc.get("base", "bits"),
    )
    results = asdict(ml.maxent_solve(problem))
    results["distribution"] = results["distribution"]["probabilities"]
    return results, [], {}, False


def _run_axioms(doc, args, schedule, policy):
    _require_keys(doc, {"statistics"}, {"axioms", "trials"}, "axioms document",
                  {"statistics": "a list of strings", "axioms": "a list of strings"})
    unknown = sorted(set(doc.get("axioms", ())) - set(ml.AxiomId.__members__))
    if unknown:
        raise SchemaError(f"axioms document: unknown 'axioms' {unknown}; "
                          f"known: {list(ml.AxiomId.__members__)}")
    axioms = [ml.AxiomId[a] for a in doc["axioms"]] if "axioms" in doc else list(ml.AxiomId)
    trials = doc.get("trials", 1000)
    results = {}
    for name in doc["statistics"]:
        stat = ml.builtin_statistic(name)
        per = {}
        for ax in axioms:
            rep = ml.check_axiom(stat, ax, trials=trials, seed=args.seed)
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
    import numpy as np
    if "bridge" in doc:
        _require_keys(doc, {"bridge"}, set(), "spectral document")
        bdoc = doc["bridge"]
        _require_keys(bdoc, {"family"}, {"params"}, "bridge object")
        _require_keys(bdoc.get("params", {}), set(), {"p"}, "bridge params")
        bridge = ml.build_bridge(bdoc["family"], **bdoc.get("params", {}))
        report = ml.bridge_analyze(bridge, schedule, policy)
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
    _require_keys(doc, {"matrix", "state"}, set(), "spectral document",
                  {"matrix": "a list of rows of [re, im] pairs",
                   "state": "a list of [re, im] pairs"})
    matrix = np.array([[complex(*_numbers(f"matrix[{i}][{j}]", z)) for j, z in enumerate(row)]
                       for i, row in enumerate(doc["matrix"])])
    state = np.array([complex(*_numbers(f"state[{i}]", z)) for i, z in enumerate(doc["state"])])
    mu = ml.qm_mean(matrix, state)
    var = ml.qm_variance(matrix, state)
    comb = ml.induced_measure(matrix, state)
    E, F = ml.pos_neg_split(matrix)
    e_term = float(np.linalg.norm(E @ state) ** 2)
    f_term = float(np.linalg.norm(F @ state) ** 2)
    locations, weights = comb.atom_arrays(math.inf)
    results = {
        "mean": mu,
        "variance": var,
        "split_mean": e_term - f_term,
        "split_identity_residual": abs(mu - (e_term - f_term)),
        "induced_measure": [{"location": x, "weight": w}
                            for x, w in zip(locations.tolist(), weights.tolist())],
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

def _parse_schedule(text: Optional[str]):
    if not text:
        return ml.TruncationSchedule()
    try:
        m0, ratio, count = text.split(",")
        return ml.TruncationSchedule(m0=float(m0), ratio=float(ratio), count=int(count))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"--schedule expects M0,r,K (got {text!r}): {exc}")


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"--c-grid expects comma-separated numbers: {exc}")
    if not all(map(math.isfinite, grid)):
        raise SchemaError(f"--c-grid expects finite centers, got {text!r}")
    return grid


def _apply_tols(pairs: list[str]):
    """The default policy with each NAME=VALUE applied, typed as its default."""
    kinds = {f.name: type(f.default) for f in fields(ml.VerdictPolicy)}
    policy = ml.VerdictPolicy()
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        if name not in kinds:
            raise SchemaError(f"unknown tolerance {name!r}; known: {sorted(kinds)}")
        try:
            value = kinds[name](value)
        except ValueError:
            raise SchemaError(f"--tol {name} expects {kinds[name].__name__}, "
                              f"got {value!r}") from None
        policy = replace(policy, **{name: value})
    return policy


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meanlab",
        description="Generalized means of heavy-tailed probability measures")
    parser.add_argument("--emit-examples", action="store_true",
                        help="write canonical example documents to --out and exit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="subcommand")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON document path")
        # no default here, so a top-level --out survives when this one is absent
        p.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--schedule", default=None, metavar="M0,r,K",
                       help="truncation schedule (verdict subcommands only)")
        p.add_argument("--c-grid", dest="c_grid", default=None, metavar="a,b,...",
                       help="centers to classify at (classify only)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="verdict policy override (verdict subcommands only)")
    return parser


# The subcommands whose handlers read the truncation schedule and the verdict
# policy; the others refuse --schedule and --tol.
_VERDICT_SUBCOMMANDS = {"classify", "weakmean", "multiplier", "spectral"}

# The library module each subcommand runs, which loads the ones it imports.
# run() loads it before the handler's clock starts: wall_time_s times no import.
_MODULES = {"classify": "genmean", "weakmean": "genmean", "multiplier": "genmean",
            "lln": "lln", "maxent": "maxent", "axioms": "axioms", "spectral": "spectral"}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (args.subcommand or args.emit_examples):
            parser.error(f"a subcommand is required: one of {', '.join(_HANDLERS)}")
    except SchemaError as exc:  # --out may be what failed, so stdout only
        print(_json_text({"error": {"type": "SchemaError", "message": str(exc)},
                          "subcommand": None}))
        return 1
    out_dir = Path(args.out)

    if args.emit_examples:
        _emit_examples(out_dir)
        print(f"wrote {len(_example_documents())} example documents to {out_dir}")
        return 0

    getattr(ml, _MODULES[args.subcommand])  # loads the handler's modules
    started = time.perf_counter()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SchemaError(f"document must be a JSON object, got {type(doc).__name__}")
        for flag, given in (("--schedule", args.schedule is not None),
                            ("--tol", bool(args.tol))):
            if given and args.subcommand not in _VERDICT_SUBCOMMANDS:
                raise SchemaError(f"{flag} is read only by "
                                  f"{', '.join(sorted(_VERDICT_SUBCOMMANDS))}, "
                                  f"not by {args.subcommand}")
        schedule = policy = None
        if args.subcommand in _VERDICT_SUBCOMMANDS:
            schedule, policy = _parse_schedule(args.schedule), _apply_tols(args.tol)
        if args.c_grid is not None:
            if args.subcommand != "classify":
                raise SchemaError(f"--c-grid is read only by classify, "
                                  f"not by {args.subcommand}")
            args.c_grid = _parse_grid(args.c_grid)
        results, warnings, csvs, undetermined = _HANDLERS[args.subcommand](
            doc, args, schedule, policy)
        report = {
            "tool": {"name": "meanlab", "version": ml.__version__},
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
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        # RecursionError: a document nested too deep to parse, build or write
        error = {"error": {"type": type(exc).__name__, "message": str(exc)},
                 "subcommand": args.subcommand}
        _write_json(out_dir / f"{args.subcommand}_error.json", error)
        print(_json_text(error))
        return 1

    _atomic_write(out_dir / f"{args.subcommand}_report.json", report_text)
    for name, (header, rows) in csvs.items():
        _write_csv(out_dir / name, header, rows)
    print(stdout_line)
    return 2 if undetermined else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
