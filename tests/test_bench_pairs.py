"""tools/bench_pairs.py's no-regression verdicts, fed canned benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = [{"name": "throughput_per_s", "better": "higher", "bound": 0.25},
            {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]

# per side, one value per metric and run: throughput holds (within bound),
# latency doubles (worse beyond bound), and peak RSS spreads wider than its
# bound on the parent while the change overlaps it (unresolved)
_VALUES = {
    "parent": {"throughput_per_s": [500, 510, 490, 505],
               "latency_p50_ms": [2.0, 2.1, 1.9, 2.0],
               "peak_rss_mb": [70.0, 90.0, 60.0, 80.0]},
    "change": {"throughput_per_s": [495, 508, 500, 502],
               "latency_p50_ms": [4.0, 4.2, 3.9, 4.1],
               "peak_rss_mb": [72.0, 75.0, 74.0, 85.0]},
}


def test_verdicts_from_canned_runs(tmp_path, monkeypatch, capsys):
    sides = {str(tmp_path / side): side for side in _VALUES}
    for checkout in sides:
        Path(checkout).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _METRICS}))
    served = {side: 0 for side in _VALUES}

    def run_once(checkout, workload, seed, seconds):
        side = sides[checkout]
        k = served[side]
        served[side] += 1
        return {"attempted": 84, "failed": 25, "runs": 10,
                "metrics": {name: {"value": values[k]}
                            for name, values in _VALUES[side].items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    status = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--workload", "verdicts", "--seed", "7", "--pairs", "4"])
    assert status == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert rows["throughput_per_s"].endswith("; within bound (bound 0.25)")
    assert rows["latency_p50_ms"].endswith("; worse beyond bound (bound 0.25)")
    assert rows["peak_rss_mb"].endswith("; unresolved (bound 0.1)")


@pytest.mark.parametrize("chg, want", [
    ([50.0, 52.0, 54.0, 56.0], "within bound"),  # every change run beats every parent run
    ([61.0, 65.0, 70.0, 79.0], "unresolved"),
    ([90.0, 95.0, 99.0, 92.0], "worse beyond bound"),
])
def test_a_wide_parent_spread_is_resolved_only_by_every_run_beating_it(chg, want):
    assert bench_pairs.verdict([60.0, 70.0, 80.0, 90.0], chg, "lower", 0.1) == want
