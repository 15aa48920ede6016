"""Layer probes through stable public entry points, and the set-up child.

Window probes time ``limit_scan(..., probe_atoms=False)`` on the fixed
60-radius default schedule and divide by the radius count, so they survive
any rewrite of the window API behind it.

Run as ``python3 perfbench/probes.py setup <workload> <checkout>``: a fresh
process that imports meanlab and runs one small operation of each kind of
the workload, which is what ``setup_s`` times from outside.
"""

from __future__ import annotations

import os
import statistics
import sys
import time


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def window_probes(ml, seed: int) -> dict[str, float]:
    """Microseconds per window for one measure of each family."""
    import numpy as np
    genmean, measures = ml.genmean, ml.measures
    schedule = genmean.TruncationSchedule(m0=1.1, ratio=1.5, count=60)
    radii = len(schedule.radii())
    policy = genmean.VerdictPolicy()
    rng = np.random.default_rng([seed, 9])
    families = {
        "comb": [measures.comb_ex5()],
        "dense_comb": [measures.integer_power_comb(3.5)],
        "empirical": [measures.EmpiricalMeasure(rng.standard_normal(2000))],
        "density": [measures.cauchy(0.0, 1.0), measures.power_tail(1.5, 1.8)],
        "affine": [measures.comb_ex4().negate().scale(2.3).shift(1.0)],
    }
    out = {}
    for name, ms in families.items():
        per = []
        for m in ms:
            scan = lambda: genmean.limit_scan(m, 0.0, schedule, policy, probe_atoms=False)
            scan()  # fill enumeration caches; the probe times warm windows
            per.append(_median_time(scan, 5) / radii)
        out[f"measures.window_us.{name}"] = 1e6 * statistics.fmean(per)
    return out


def eig_probes(ml, seed: int) -> dict[str, float]:
    import numpy as np
    rng = np.random.default_rng([seed, 10])
    out = {}
    for n, repeats in ((16, 50), (128, 10)):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2.0
        out[f"spectral.eig_ms.n{n}"] = 1e3 * _median_time(
            lambda: ml.spectral.eigendecompose(a), repeats)
    return out


def draw_probe(ml, seed: int) -> dict[str, float]:
    """One Sampler.draw(100) call, where building the substream RNG dominates."""
    sampler = ml.lln.build_sampler(ml.measures.cauchy(0.0, 1.0), seed=seed)
    times = []
    for i in range(500):
        t0 = time.perf_counter()
        sampler.draw(100, stream=(7, i))
        times.append(time.perf_counter() - t0)
    return {"lln.draw_call_us": 1e6 * statistics.median(times)}


IMPORT_GROUPS = ("meanlab", "scipy.integrate", "scipy.special")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative milliseconds per group of modules from ``python -X importtime``.

    A group is a package and its submodules.  Its time is the sum of the
    cumulative times of its outermost entries, which also works when the
    package line itself is missing (scipy's lazy submodule loader).
    """
    nodes = []  # post-order: (depth, name, cumulative us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        kids = []
        while nodes and nodes[-1][0] > depth:
            kids.append(nodes.pop())
        nodes.append((depth, name.strip(), int(cumulative), kids))
    out = dict.fromkeys(IMPORT_GROUPS, 0.0)

    def walk(node, inside):
        _, name, cumulative, kids = node
        group = next((g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")), None)
        if group and group not in inside:
            out[group] += cumulative / 1e3
        for kid in kids:
            walk(kid, inside | {group} if group else inside)

    for node in nodes:
        walk(node, frozenset())
    return out


def import_metrics(parsed: list[dict[str, float]]) -> dict[str, float]:
    """Median over processes; a module never imported reads 0."""
    return {"cli.import_ms": statistics.median(p["meanlab"] for p in parsed),
            "cli.import_ms.scipy_integrate": statistics.median(p["scipy.integrate"] for p in parsed),
            "cli.import_ms.scipy_special": statistics.median(p["scipy.special"] for p in parsed)}


def _setup_child(workload: str, root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import meanlab  # noqa: F401  (the import is what set-up times)
    import workloads
    for spec in workloads.warmup_specs(workload):
        workloads.run_op(meanlab, spec)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "setup":
        sys.exit("usage: probes.py setup <workload> <checkout>")
    _setup_child(sys.argv[2], sys.argv[3])
