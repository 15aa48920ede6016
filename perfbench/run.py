"""meanlab benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

Run it from the root of a meanlab checkout; it imports ``src/meanlab`` from
there.  Workloads (see workloads.WHY):

* ``verdicts``     taxonomy + ladder + tail curve on one fresh measure per op;
* ``experiments``  LLN, maxent, axioms, dense spectral and multiplier ops;
* ``cli_cold``     one fresh ``meanlab <subcommand>`` process per example
                   document, in pairs of passes with the same ``--seed``.

Each is a closed loop with one client: the next operation starts when the
previous one returned.  Library workloads run a fixed set of distinct
rounds, then run them again in turn until ``--seconds`` have passed;
``cli_cold`` runs whole pairs of passes over the same processes.  BLAS runs
on one thread.  Outputs are checked after the timed loop (oracle.py), and
``attempted`` and ``failed`` count distinct operations, so they are the
same in every run.

``--trace 0`` prints the end-to-end metrics, with operation times scaled to a
reference host speed measured between operations (hostspeed.py); ``--trace 1`` replays the same
operations with spans recorded (spans.py), adds one small operation of every
other kind so each layer is timed, runs the layer probes (probes.py) and
prints the per-layer metrics plus the tracing overhead.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0


def percentile(values, q: float) -> float:
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def supported_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p80/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 80, 50):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": int(BLAS_THREADS)}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def run_child(cmd: list[str], root: str) -> float:
    """Wall time of one child process; raises if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed:\n{proc.stderr[-2000:]}")
    return elapsed


def emit_cmd(out: str) -> list[str]:
    """``meanlab --emit-examples``: writes the example documents to ``out``."""
    import workloads
    return [sys.executable, "-c", workloads.CLI_ENTRY, "--emit-examples", "--out", out]


def measure_setup(workload: str, root: str, work: str) -> tuple[float, str | None]:
    """Median wall time of SETUP_REPEATS fresh set-up processes.

    Library workloads: import meanlab plus one small operation of each kind.
    cli_cold: ``meanlab --emit-examples``, which writes the input documents.
    Returns the median and, for cli_cold, the first directory of documents.
    """
    times = []
    for i in range(SETUP_REPEATS):
        if workload == "cli_cold":
            cmd = emit_cmd(os.path.join(work, f"docs{i}"))
        else:
            cmd = [sys.executable, os.path.join(HERE, "probes.py"), "setup", workload, root]
        times.append(run_child(cmd, root))
    docs = os.path.join(work, "docs0") if workload == "cli_cold" else None
    return statistics.median(times), docs


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

def run_specs(ml, specs, records, span, counts, speed=None, tag="extra"):
    """Run ``specs`` in order; record ``op`` = (tag, index) names each one."""
    import workloads
    for j, spec in enumerate(specs):
        if speed is not None:
            speed.tick()
        before = dict(counts)
        t0 = time.perf_counter()
        info = {"kind": spec["kind"]}
        try:
            with span("op", info):
                res, err = workloads.run_op(ml, spec, span), None
        except Exception as exc:  # an operation that raises is a failed operation
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        info["counts"] = {k: v - before.get(k, 0) for k, v in counts.items()}
        records.append({"op": (tag, j), "spec": spec, "start": t0,
                        "latency_s": time.perf_counter() - t0, "results": res, "error": err})


def run_library(ml, workload, seed, seconds, span, counts, rounds=None, speed=None):
    """Whole cycles through the workload's DISTINCT_ROUNDS until ``seconds``
    have passed (or exactly ``rounds`` rounds), with the host-speed kernel
    between operations when ``speed`` is given.  Round r runs distinct round
    r mod DISTINCT_ROUNDS, so every distinct operation runs equally often.

    Returns the records and the time of each round: the sum of its
    operations' latencies.
    """
    import workloads
    distinct = [workloads.ROUNDS[workload](seed, r)
                for r in range(workloads.DISTINCT_ROUNDS[workload])]
    records, round_s = [], []
    t_start = time.perf_counter()
    while (len(round_s) < rounds) if rounds is not None else (
            not round_s or len(round_s) % len(distinct)
            or time.perf_counter() - t_start < seconds):
        first = len(records)
        r = len(round_s) % len(distinct)
        run_specs(ml, distinct[r], records, span, counts, speed, tag=r)
        round_s.append(sum(r["latency_s"] for r in records[first:]))
    return records, round_s


def check_library(records) -> None:
    """Set each record's ``family`` and ``fail`` (a reason, or None)."""
    import workloads
    for rec in records:
        rec["family"] = workloads.family_key(rec["spec"])
        reason = rec["error"]
        if reason is None:
            try:
                reason = workloads.check_op(rec["spec"], rec["results"])
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"output not checkable: {type(exc).__name__}: {exc}"
        rec["fail"] = reason


def canonical(results) -> str:
    return json.dumps(results, sort_keys=True, default=repr)


def distinct_ops(records) -> list[dict]:
    """One entry per distinct operation (``op``), with its ``family`` and
    ``fail``.  An operation fails if any of its runs failed; a run whose
    results differ from the operation's first run fails it as
    ``nondeterministic``, which no known defect covers."""
    ops = {}
    for rec in records:
        text = canonical(rec["results"])
        op = ops.get(rec["op"])
        if op is None:
            ops[rec["op"]] = {"family": rec["family"], "fail": rec["fail"], "text": text}
        elif op["fail"] is None and (rec["fail"] or text != op["text"]):
            op["family"] = "nondeterministic"
            op["fail"] = rec["fail"] or "results changed between runs of the same operation"
    return list(ops.values())


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run_cli_process(root, docs, doc, sub, cli_seed, work, importtime=False) -> dict:
    import oracle
    import workloads
    out = tempfile.mkdtemp(dir=work, prefix="cli-")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", workloads.CLI_ENTRY, sub, "--input", os.path.join(docs, doc),
        "--out", out, "--seed", str(cli_seed)]
    err_path = os.path.join(work, "stderr.txt")
    with open(os.path.join(work, "stdout.txt"), "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=fo, stderr=fe)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"op": ("cli", doc, sub), "doc": doc, "sub": sub, "family": f"cli:{sub}",
           "start": t0, "latency_s": wall,
           "rss_kb": usage.ru_maxrss, "exit": proc.returncode, "fail": None, "results": None}
    rec["bytes"] = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    report_path = os.path.join(out, f"{sub}_report.json")
    try:
        if proc.returncode not in (0, 2):  # 2: only undetermined verdicts
            raise ValueError(f"exit status {proc.returncode}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.loads(fh.read(), parse_constant=_reject_constant)
        rec["results"] = report["results"]
        rec["handler_s"] = report["wall_time_s"]
        with open(os.path.join(docs, doc), encoding="utf-8") as fh:
            rec["fail"] = oracle.check_cli(json.load(fh), sub, report["results"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rec["fail"] = f"{type(exc).__name__}: {exc}"
    if importtime:
        import probes
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            rec["imports"] = probes.parse_importtime(fh.read())
    shutil.rmtree(out)
    return rec


def run_cli(root, docs, seed, seconds, work, speed, passes=None, importtime_passes=()):
    """Whole pairs of passes over every (document, subcommand) until
    ``seconds`` have passed; every pass uses the same --seed, so their
    results must agree (distinct_ops).  The host-speed kernel runs between
    processes.

    Returns the records and the time of each pass: the sum of its
    processes' wall times."""
    import numpy as np
    import workloads
    pairs = workloads.cli_pairs(docs)
    rng = np.random.default_rng([seed, 3])
    cli_seed = int(rng.integers(2**31))
    records, pass_s = [], []
    t_start = time.perf_counter()
    p = 0
    while (p < passes) if passes is not None else (
            p < 2 or p % 2 == 1 or time.perf_counter() - t_start < seconds):
        start = len(records)
        for i in rng.permutation(len(pairs)):
            doc, sub = pairs[i]
            speed.tick()
            rec = run_cli_process(root, docs, doc, sub, cli_seed, work,
                                  importtime=p in importtime_passes)
            rec["pass"] = p
            records.append(rec)
        pass_s.append(sum(r["latency_s"] for r in records[start:]))
        p += 1
    return records, pass_s


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _mean(xs, scale=1.0) -> float:
    xs = list(xs)
    return scale * statistics.fmean(xs) if xs else 0.0


def layer_metrics(tracer, cli_records) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    ops = {sid for sid, s in enumerate(spans) if s[0] == "op"}
    verdict_ops = {sid for sid in ops if spans[sid][4]["kind"] in ("verdict", "bridge")}
    n_verdict = max(1, len(verdict_ops))
    op_counts = Counter()
    for sid in ops:
        op_counts.update(spans[sid][4].get("counts", {}))
    scans = tracer.under(verdict_ops, "genmean.limit_scan")
    all_scans = [i for i in tracer.infos("genmean.limit_scan") if "probes" in i]
    mult = [s for s in spans if s[0] == "genmean.multiplier_mean"]
    exp_tilt_ids = {sid for sid, s in enumerate(spans)
                    if s[0] == "genmean.multiplier_mean" and s[4]["family"] == "exp_tilt"}
    # Calls that raised carry no result fields and are left out.
    draws = [(s[2] - s[1], s[4]["count"]) for s in spans if s[0] == "lln.draw"]
    trials = [(s[2] - s[1], s[4]["trials"]) for s in spans
              if s[0] == "axioms.check_axiom" and "trials" in s[4]]
    solves = [i for i in tracer.infos("maxent.maxent_solve") if "newton_steps" in i]
    own_tax = [s for s in spans if s[0] == "genmean.classify_taxonomy" and s[3] in verdict_ops]
    d = tracer.durations
    m = {
        "measures.build_ms": (_mean(d("measures.build"), 1e3), "ms"),
        "measures.atoms_materialized": (
            _mean(spans[sid][4]["counts"].get("measures.atoms", 0) for sid in verdict_ops), "count"),
        "genmean.limit_scan_ms": (_mean(d("genmean.limit_scan"), 1e3), "ms"),
        "genmean.scans_per_measure": (len(scans) / n_verdict, "count"),
        "genmean.windows_per_measure": (sum(s[4].get("radii", 0) for s in scans) / n_verdict,
                                        "count"),
        "genmean.probe_radii_per_scan": (_mean(i["probes"] for i in all_scans), "count"),
        "genmean.classify_series_us": (_mean(d("genmean.classify_series"), 1e6), "us"),
        "genmean.taxonomy_ms": (_mean(d("genmean.classify_taxonomy"), 1e3), "ms"),
        "genmean.ladder_ms": (_mean(d("genmean.mean_ladder"), 1e3), "ms"),
        "genmean.tail_curve_ms": (_mean(d("genmean.tail_mass_curve"), 1e3), "ms"),
        "genmean.undetermined": (sum(s[4].get("case") == "Undetermined" for s in own_tax)
                                 / n_verdict, "count"),
        "genmean.multiplier_ms.exp_tilt": (
            _mean((s[2] - s[1] for s in mult if s[4]["family"] == "exp_tilt"), 1e3), "ms"),
        "genmean.multiplier_ms.window": (
            _mean((s[2] - s[1] for s in mult if s[4]["family"] == "window"), 1e3), "ms"),
        "genmean.quad_calls": (len(tracer.under(exp_tilt_ids, "scipy.integrate.quad"))
                               / max(1, len(exp_tilt_ids)), "count"),
        "lln.draws_per_s": (sum(n for _, n in draws) / max(1e-12, sum(t for t, _ in draws)), "1/s"),
        "lln.sampler_build_ms": (_mean(d("lln.build_sampler"), 1e3), "ms"),
        "lln.trajectory_ms": (_mean(d("lln.running_mean_trajectory"), 1e3), "ms"),
        "maxent.solve_ms": (_mean(d("maxent.maxent_solve"), 1e3), "ms"),
        "maxent.newton_steps": (_mean(i["newton_steps"] for i in solves), "count"),
        "maxent.objective_evals": (op_counts["maxent.dual_objective"] / max(1, len(solves)),
                                   "count"),
        "axioms.trials_per_s": (sum(n for _, n in trials) / max(1e-12, sum(t for t, _ in trials)),
                                "1/s"),
        "axioms.trials": (_mean(n for _, n in trials), "count"),
        "spectral.induced_measure_ms": (_mean(d("spectral.induced_measure"), 1e3), "ms"),
        "spectral.bridge_ms": (_mean(d("spectral.bridge_analyze"), 1e3), "ms"),
    }
    ok = [r for r in cli_records if "handler_s" in r]
    m["cli.handler_s"] = (statistics.median(r["handler_s"] for r in ok) if ok else 0.0, "s")
    m["cli.overhead_s"] = (statistics.median(r["latency_s"] - r["handler_s"] for r in ok)
                           if ok else 0.0, "s")
    m["cli.bytes_written"] = (_mean(r["bytes"] for r in cli_records), "count")
    return m


def coverage_specs() -> list[dict]:
    """One small operation of every library kind, so each layer is timed
    whichever workload is traced."""
    import workloads
    full_exp_tilt = {"kind": "multiplier", "multiplier": "exp_tilt", "family": "cauchy",
                     "params": {"loc": 0.0, "scale": 1.0}, "c": 1.0}
    return workloads.warmup_specs("verdicts") + workloads.warmup_specs("experiments") + [
        full_exp_tilt]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verdicts", "experiments", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meanlab", "__init__.py")):
        print("perfbench: src/meanlab not found; run from the root of a meanlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work_root = os.path.join(HERE, "out")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root, prefix=f"{args.workload}-")
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, work) -> int:
    import hostspeed
    import workloads
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("why: " + workloads.WHY[args.workload])
    print("env: " + json.dumps(env, sort_keys=True))

    speed = hostspeed.HostSpeed()
    setup_s, docs = measure_setup(args.workload, root, work)
    import meanlab as ml
    import spans

    counts = Counter()
    cli_records: list[dict] = []
    extra: list[dict] = []  # traced run only: coverage operations
    if args.workload == "cli_cold":
        records, round_s = run_cli(root, docs, args.seed, args.seconds, work, speed,
                                   passes=2 if args.trace else None,
                                   importtime_passes=(1,) if args.trace else ())
        peak_rss_mb = max(r["rss_kb"] for r in records) / 1024.0
        if args.trace:
            untraced = sum(r["latency_s"] for r in records if r["pass"] == 0)
            traced = sum(r["latency_s"] for r in records if r["pass"] == 1)
            cli_records = [r for r in records if r["pass"] == 0]
            imports = [r["imports"] for r in records if r["pass"] == 1]
    else:
        for spec in workloads.warmup_specs(args.workload):  # untimed, as in set-up
            workloads.run_op(ml, spec)
        records, round_s = run_library(ml, args.workload, args.seed, args.seconds,
                                       workloads.no_span, counts, speed=speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_library(records)
        untraced = sum(round_s)
    runs = list(records)  # every run of every operation, for distinct_ops
    speed.sample()
    # Operation times are scaled to the reference host speed (hostspeed.py)
    # by the kernel times around each operation.
    lat = [speed.local_factor(r["start"]) * r["latency_s"] for r in records]

    tracer = None
    if args.trace:
        import probes
        tracer = spans.Tracer()
        spans.instrument(tracer, ml)
        try:
            if args.workload != "cli_cold":
                replay, replay_s = run_library(ml, args.workload, args.seed, args.seconds,
                                               tracer.span, tracer.counts, rounds=len(round_s))
                traced = sum(replay_s)
                check_library(replay)
                runs += replay  # the replay must reproduce every result
            run_specs(ml, coverage_specs(), extra, tracer.span, tracer.counts)
        finally:
            tracer.uninstall()
        check_library(extra)
        runs += extra
        if args.workload != "cli_cold":
            cdocs = os.path.join(work, "docs")
            run_child(emit_cmd(cdocs), root)
            pair = [("measure_gaussian.json", "classify"), ("measure_comb_ex2.json", "weakmean")]
            cli_records = [run_cli_process(root, cdocs, d, s, args.seed, work) for d, s in pair]
            runs += cli_records
            imports = []
            for _ in range(SETUP_REPEATS):
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import meanlab.cli"],
                                      cwd=root, env=child_env(root), capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S, check=True)
                imports.append(probes.parse_importtime(proc.stderr))
        metrics = layer_metrics(tracer, cli_records)
        for name, value in probes.import_metrics(imports).items():
            metrics[name] = (value, "ms")
        for probe in (probes.window_probes, probes.eig_probes, probes.draw_probe):
            for name, value in probe(ml, args.seed).items():
                metrics[name] = (value, "us" if name.endswith("_us") or "_us." in name else "ms")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    else:
        metrics = {
            # every distinct operation ran equally often (whole cycles)
            "throughput_per_s": (len(lat) / math.fsum(lat), "1/s"),
            "latency_p50_ms": (1e3 * percentile(lat, 50), "ms"),
            "latency_p80_ms": (1e3 * percentile(lat, 80), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    import oracle
    checked = distinct_ops(runs)
    attempted = len(checked)
    failures = [(r["family"], r["fail"]) for r in checked if r["fail"]]
    failed = len(failures)
    by_family = Counter(f for f, _ in failures)
    unexpected = [f for f, reason in failures if not oracle.is_known(f, reason)]

    raw = [r["latency_s"] for r in records]
    q = supported_percentile(len(lat))
    print(f"ops={attempted} runs={len(runs)} rounds={len(round_s)} elapsed_s={sum(round_s):.3f} "
          f"failed_frac={failed / max(1, attempted):.4f} latency_p{q}_ms="
          f"{1e3 * percentile(lat, q):.3f} (highest percentile with >= 10 samples beyond it)")
    print(f"host speed: kernel mean {speed.typical():.5f} s over "
          f"{len(speed.samples)} passes, reference {hostspeed.KERNEL_REF_S} s, so operation "
          f"times x {math.fsum(lat) / math.fsum(raw):.4f} overall; unscaled: latency_p50_ms="
          f"{1e3 * percentile(raw, 50):.3f} round_s median={statistics.median(round_s):.4f}")
    for fam, n in sorted(by_family.items()):
        reason = next(r for f, r in failures if f == fam)
        tag = f"UNEXPECTED: {unexpected.count(fam)}" if fam in unexpected else "known defect"
        print(f"failed {fam}: {n} ({tag}) e.g. {reason}")
    if tracer is not None:
        print("self time by span (s): name calls total self")
        table = tracer.self_times()
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:34s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        if tracer.absent:
            print("absent spans (name no longer exists): " + ", ".join(sorted(tracer.absent)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {fmt(value)} {unit} (samples={len(records)})")

    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
