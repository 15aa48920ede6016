"""Alternating parent/change pairs of ``perfbench/run.py`` on one workload and seed.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` in two
checkouts, one after the other, for N pairs: the parent runs first in odd
pairs (1, 3, ...) and the change first in even pairs, so a drift of the
host's speed does not favour either side.  Prints each pair's end-to-end
metrics, then per metric the median of each side, the parent's
interquartile range, in how many pairs the change was better, and the
no-regression verdict:

* "worse beyond bound": the change's median is worse than the parent's by
  more than the metric's ``bound`` times the parent's median;
* "unresolved": otherwise, when the parent's IQR exceeds that margin and
  not every run of the change is better than every run of the parent;
* "within bound": otherwise.

A metric's better direction and bound come from the change checkout's
``BENCHMARK.json``.  Each run's completed operation runs (the ``runs=``
field of the harness's report line) are printed beside ``peak_rss_mb``:
the harness keeps state per completed run, so a faster side also reads a
higher peak RSS.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload experiments --seed 7 --pairs 10 --seconds 15

Uses only the standard library.  Exits 1 if a run fails or the two sides
report different ``attempted``/``failed`` counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one benchmark run (its last stdout line), with
    ``runs``, the completed operation runs of its ``ops=`` report line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    report = next(line for line in lines if line.startswith("ops="))
    out["runs"] = int(next(f for f in report.split() if f.startswith("runs="))[len("runs="):])
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(par: list[float], chg: list[float], better: str, bound: float) -> str:
    """The no-regression verdict of one metric's parent and change runs."""
    sign = 1.0 if better == "higher" else -1.0
    mp = statistics.median(par)
    margin = bound * abs(mp)
    if sign * (statistics.median(chg) - mp) < -margin:
        return "worse beyond bound"
    q1, q3 = quartiles(par)
    every_run_better = min(sign * c for c in chg) > max(sign * p for p in par)
    if q3 - q1 > margin and not every_run_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    counts = set()
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            out = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(out)
            counts.add((out["attempted"], out["failed"]))
        line = "  ".join(
            f"{name}={runs['parent'][-1]['metrics'][name]['value']:.4g}"
            f"->{runs['change'][-1]['metrics'][name]['value']:.4g}"
            for name in end_to_end)
        print(f"pair {k} ({order[0]} first): {line}  "
              f"runs={runs['parent'][-1]['runs']}->{runs['change'][-1]['runs']}", flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':18s} {'parent':>10s} {'IQR':>9s} {'change':>10s} {'change %':>9s}  better")
    for name, metric in end_to_end.items():
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        q1, q3 = quartiles(par)
        mp, mc = statistics.median(par), statistics.median(chg)
        pct = 100.0 * (mc - mp) / mp if mp else float("nan")
        beyond = " (median gain beyond the parent IQR)" if sign * (mc - mp) > q3 - q1 else ""
        print(f"{name:18s} {mp:10.4g} {q3 - q1:9.3g} {mc:10.4g} {pct:+8.1f}%  "
              f"change better in {wins} of {args.pairs}{beyond}; "
              f"{verdict(par, chg, metric['better'], metric['bound'])} (bound {metric['bound']:g})")
    par = [r["runs"] for r in runs["parent"]]
    chg = [r["runs"] for r in runs["change"]]
    q1, q3 = quartiles(par)
    mp, mc = statistics.median(par), statistics.median(chg)
    pct = 100.0 * (mc - mp) / mp if mp else float("nan")
    print(f"{'runs':18s} {mp:10.4g} {q3 - q1:9.3g} {mc:10.4g} {pct:+8.1f}%  "
          f"completed operation runs (peak_rss_mb grows with them)")
    print("attempted/failed per run: " + ", ".join(f"{a}/{f}" for a, f in sorted(counts)))
    return 0 if len(counts) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
