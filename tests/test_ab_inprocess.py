"""tools/ab_inprocess.py, the in-process A/B of library calls: a smoke run, and how it
tells two results apart."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)

# one operation's result on the parent, as a workload runner returns it
_PARENT = {"verdict": {"kind": "converged", "value": 0.7, "spread": 1.0,
                       "values": np.array([0.5, 0.6, 0.7])},
           "rows": [(1, 2.0), (3, -0.0)]}


def test_one_round_of_a_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "verdicts", "--seed", "7", "--rounds", "1"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == ("verdicts seed 7: 84 operations, 1 alternating rounds, "
                        "median ms/op and minor faults/op")
    assert lines[1].split() == ["family", "ops", "parent", "change", "par-flt", "chg-flt",
                                "speed-up"]
    # one source tree on both sides gives bitwise the same results
    assert lines[-1] == "results: 0 of 84 operations differ"
    # the latency percentiles over operations, each operation once, on each side
    pcts = re.fullmatch(r"per-operation median ms, parent -> change: "
                        r"p50 ([\d.]+) -> ([\d.]+), p80 ([\d.]+) -> ([\d.]+)", lines[-2])
    assert pcts, lines[-2]
    p50, p80 = [float(v) for v in pcts.groups()[:2]], [float(v) for v in pcts.groups()[2:]]
    assert all(0.0 < a <= b for a, b in zip(p50, p80))
    # ms per operation, then minor page faults per operation, on each side
    rows = [re.fullmatch(r"(\S+) +(\d+) +[\d.]+ +[\d.]+ +(\d+\.\d) +(\d+\.\d) +[\d.]+x  "
                         r"change faster in [01] of 1", line) for line in lines[2:-2]]
    assert all(rows), lines
    ops = {row[1]: int(row[2]) for row in rows}
    faults = {row[1]: (float(row[3]), float(row[4])) for row in rows}
    # the faults of all operations are the op-weighted mean of the families',
    # each printed to 0.1
    for side in (0, 1):
        want = sum(ops[f] * faults[f][side] for f in ops if f != "all") / 84
        assert faults["all"][side] == pytest.approx(want, abs=0.1 + 1e-9)
    assert ops.pop("all") == sum(ops.values()) == 84
    assert ops["integer_power_comb+p<2.7"] == 9


def test_percentiles_interpolate_between_order_statistics():
    # as perfbench/run.py reads latency_p50_ms and latency_p80_ms
    assert ab_inprocess.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert ab_inprocess.percentile(range(1, 12), 80) == 9.0
    assert ab_inprocess.percentile([1.0, 2.0], 80) == pytest.approx(1.8)
    assert ab_inprocess.percentile([7.0], 50) == 7.0


def test_a_result_differing_in_floats_only_reads_its_largest_relative_gap():
    # the spread is 4 ulps (of 1) apart, a value in the array 1 ulp, and -0.0 reads 0.0
    change = {"verdict": {"kind": "converged", "value": 0.7, "spread": 1.0 + 2.0 ** -50,
                          "values": np.array([0.5, np.nextafter(0.6, 1.0), 0.7])},
              "rows": [(1, 2.0), (3, 0.0)]}
    assert ab_inprocess.how_differ(_PARENT, change) == "floats only, max rel 8.88e-16"


def test_a_changed_string_is_named_by_its_field():
    change = {"verdict": dict(_PARENT["verdict"], kind="oscillates_bounded", value=0.8),
              "rows": _PARENT["rows"]}
    assert ab_inprocess.how_differ(_PARENT, change) == (
        "result['verdict']['kind']: 'converged' != 'oscillates_bounded'")
    assert ab_inprocess.how_differ(_PARENT, "QuadratureError: did not converge").startswith(
        "result: {'verdict': ")
