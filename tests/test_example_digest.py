"""Smoke test of tools/example_digest.py, the example-run digest."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "example_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("example_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_has_one_line_per_example_run_and_repeats():
    tool = _load_tool()
    lines = tool.digest_lines()
    assert len(lines) == 27
    runs, total = lines[:-1], lines[-1]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+\.json [a-z]+", line) for line in runs)
    assert re.fullmatch(r"[0-9a-f]{64}  total", total)
    assert sum(line.endswith((" classify", " weakmean")) for line in runs) == 16
    assert tool.digest_lines() == lines


def test_digest_runs_without_pythonpath(tmp_path):
    # with no meanlab on the import path the tool takes its own checkout's src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == _load_tool().digest_lines()[-1]
