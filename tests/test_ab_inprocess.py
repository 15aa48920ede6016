"""Smoke test of tools/ab_inprocess.py, the in-process A/B of library calls."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    # ms per operation, then minor page faults per operation, on each side
    rows = [re.fullmatch(r"(\S+) +(\d+) +[\d.]+ +[\d.]+ +(\d+\.\d) +(\d+\.\d) +[\d.]+x  "
                         r"change faster in [01] of 1", line) for line in lines[2:-1]]
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
