"""Smoke test of tools/ab_inprocess.py, the in-process A/B of library calls."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_of_a_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "verdicts", "--seed", "7", "--rounds", "1"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdicts seed 7: 84 operations, 1 alternating rounds, median ms/op"
    # one source tree on both sides gives bitwise the same results
    assert lines[-1] == "results: 0 of 84 operations differ"
    rows = [re.fullmatch(r"(\S+) +(\d+) +[\d.]+ +[\d.]+ +[\d.]+x  change faster in [01] of 1",
                         line) for line in lines[2:-1]]
    assert all(rows), lines
    ops = {row[1]: int(row[2]) for row in rows}
    assert ops.pop("all") == sum(ops.values()) == 84
    assert ops["integer_power_comb+p<2.7"] == 9
