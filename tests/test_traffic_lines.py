"""A smoke test of ``tools/traffic_lines.py`` on the CLI examples alone
(about 2 s: one traced pass over every example run)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli_lines():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic_lines.py"),
                           "--sources", "cli"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_examples_leave_the_quadrature_fallback_unrun(cli_lines):
    # no example reaches a density piece the exp-tilt rule has to bisect
    lines = cli_lines
    modules = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    assert "measures.py" in modules and "cli.py" in modules
    assert "  _bisect: never called" in "\n".join(lines)
    # the examples classify gaussian and cauchy laws through the closed forms
    # (only their refusal of a whole-line window stays unrun)
    assert not any(line.startswith("  _ClosedForm._stats_between: never called")
                   for line in lines)


def test_cli_examples_run_the_exp_tilt_node_rule(cli_lines):
    # multiplier_exp_tilt_cauchy.json takes the node rule: two outer pieces,
    # both kept in the first round, so nothing is bisected
    assert not any(line.startswith("  _split_rule: never called") for line in cli_lines)


def test_finds_its_own_checkout_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic_lines.py"), "--help"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: traffic_lines.py")
