"""Interleaved in-process A/B of one library workload's operations.

Loads ``src/meanlab`` from two checkouts into one process, under the package
names ``meanlab_parent`` and ``meanlab_change``, and runs the distinct
operations of one workload (``perfbench/workloads.py`` of the change
checkout, imported and never modified) through each in alternating rounds:
the parent goes first in odd rounds and the change first in even ones, so a
drift of the host's speed favours neither side.  Every operation runs once
on each side, untimed, before the first round, and that pass compares the
two sides' results: the sha256 of each operation's ``repr``, or of its
exception's type and message.  Prints, per operation family
(``workloads.family_key``) and over all operations, the median over rounds
of the mean ms per operation on each side, the median over rounds of the
mean minor page faults per operation on each side (``ru_minflt`` of
``getrusage``, read before and after each operation: each array the
allocator maps afresh is faulted in page by page), the speed-up (parent
time over change time) and in how many rounds the change was faster; then
the p50 and p80 of each side's per-operation median ms (the median over
rounds of each operation's time, every operation of the cycle counted once,
as the benchmark's latency percentiles count them), so a change aimed at a
latency percentile shows here too; then
``results: K of N operations differ`` and the family of each operation
whose result differs, with how it differs: ``floats only, max rel <x>``
when the two results differ in float fields alone, else the first other
field that differs.  So a refactor shows at once whether its traffic is
bitwise unchanged, and an ulp-level change reads apart from a changed
verdict.

    python tools/ab_inprocess.py --parent ../parent --change . \\
        --workload verdicts --seed 7 --rounds 30

This times the library calls alone, without the harness's process, set-up,
checks or memory, so it is a quick look while writing a change.  A claimed
speed-up still needs alternating runs of the benchmark itself
(``tools/bench_pairs.py``).

Uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import math
import os
import resource
import statistics
import sys
import time
import warnings

SIDES = ("parent", "change")


def load_meanlab(checkout: str, name: str):
    """``src/meanlab`` of ``checkout`` as the package ``name``."""
    package = os.path.join(os.path.abspath(checkout), "src", "meanlab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_round(workloads, ml, specs) -> list[tuple[float, int]]:
    """(seconds, minor page faults) of each operation of ``specs``."""
    costs = []
    for spec in specs:
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        try:
            workloads.run_op(ml, spec)
        except Exception:  # a failing operation is timed like any other
            pass
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        costs.append((t1 - t0, f1 - f0))
    return costs


def percentile(values, q: float) -> float:
    """The q-th percentile of ``values``, interpolated linearly between the
    order statistics as ``perfbench/run.py`` does."""
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def outcomes(workloads, ml, specs) -> list:
    """Each operation's result, or its exception's type and message."""
    out = []
    for spec in specs:
        try:
            out.append(workloads.run_op(ml, spec))
        except Exception as exc:  # a failing operation is compared like any other
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


class _Differ(Exception):
    """A field that differs in more than its floats."""


def _max_rel(a, b, path: str) -> float:
    """Largest relative difference between the floats of ``a`` and ``b``,
    walked through dicts, lists, tuples and ndarrays; raises _Differ at the
    first other field that differs."""
    a, b = (x.tolist() if hasattr(x, "tolist") else x for x in (a, b))  # numpy to Python
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (a != a and b != b):
            return 0.0
        rel = abs(a - b) / max(abs(a), abs(b))
        return rel if rel == rel else math.inf  # inf or NaN against a number
    if type(a) is not type(b):
        raise _Differ(f"{path}: {a!r:.60} != {b!r:.60}")
    if isinstance(a, dict) and a.keys() == b.keys():
        return max((_max_rel(a[k], b[k], f"{path}[{k!r}]") for k in a), default=0.0)
    if isinstance(a, (list, tuple)) and len(a) == len(b):
        return max((_max_rel(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b:
        raise _Differ(f"{path}: {a!r:.60} != {b!r:.60}")
    return 0.0


def how_differ(parent, change) -> str:
    """``floats only, max rel <x>``, or the first other field that differs."""
    try:
        return f"floats only, max rel {_max_rel(parent, change, 'result'):.3g}"
    except _Differ as field:
        return str(field)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("verdicts", "experiments"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "perfbench"))
    import workloads

    libs = {side: load_meanlab(getattr(args, side), f"meanlab_{side}") for side in SIDES}
    specs = [spec for r in range(workloads.DISTINCT_ROUNDS[args.workload])
             for spec in workloads.ROUNDS[args.workload](args.seed, r)]
    families = [workloads.family_key(spec) for spec in specs]
    warnings.simplefilter("ignore")  # known defects warn on every run
    results = {side: outcomes(workloads, libs[side], specs) for side in SIDES}

    # per side: {family: [mean ms per operation in each round]}, and faults
    # likewise; op_ms[side][j] holds operation j's ms in each round
    ms: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    faults: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    op_ms: dict[str, list[list[float]]] = {side: [[] for _ in specs] for side in SIDES}
    for k in range(1, args.rounds + 1):
        for side in SIDES if k % 2 else SIDES[::-1]:
            ops = run_round(workloads, libs[side], specs)
            costs = {family: [] for family in families}
            for family, ms_of_op, cost in zip(families, op_ms[side], ops):
                costs[family].append(cost)
                ms_of_op.append(1e3 * cost[0])
            costs["all"] = [c for cs in costs.values() for c in cs]
            for family, cs in costs.items():
                ms[side].setdefault(family, []).append(1e3 * sum(t for t, _ in cs) / len(cs))
                faults[side].setdefault(family, []).append(sum(f for _, f in cs) / len(cs))

    print(f"{args.workload} seed {args.seed}: {len(specs)} operations, "
          f"{args.rounds} alternating rounds, median ms/op and minor faults/op")
    print(f"{'family':36s} {'ops':>4s} {'parent':>9s} {'change':>9s} "
          f"{'par-flt':>8s} {'chg-flt':>8s} {'speed-up':>9s}")
    counts = {family: families.count(family) for family in families}
    counts["all"] = len(specs)
    for family in sorted(counts, key=lambda f: (f == "all", f)):
        par, chg = ms["parent"][family], ms["change"][family]
        wins = sum(c < p for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        fp, fc = (statistics.median(faults[side][family]) for side in SIDES)
        print(f"{family:36s} {counts[family]:4d} {mp:9.3f} {mc:9.3f} {fp:8.1f} {fc:8.1f} "
              f"{mp / mc:8.2f}x  change faster in {wins} of {args.rounds}")
    medians = {side: [statistics.median(t) for t in op_ms[side]] for side in SIDES}
    print("per-operation median ms, parent -> change: "
          + ", ".join(f"p{q} {percentile(medians['parent'], q):.3f} -> "
                      f"{percentile(medians['change'], q):.3f}" for q in (50, 80)))
    differ = [(family, how_differ(par, chg))
              for family, par, chg in zip(families, results["parent"], results["change"])
              if digest(par) != digest(chg)]
    print(f"results: {len(differ)} of {len(specs)} operations differ")
    for family, how in differ:
        print(f"  differs: {family}: {how}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
