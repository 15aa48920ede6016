"""Golden result payloads for every example document the CLI emits.

Each (document, subcommand) pair that ``meanlab --emit-examples`` yields is
run in-process through ``meanlab.cli.run`` and its exit code and ``results``
payload are compared with the checked-in file under ``tests/golden/``.
Strings, booleans and ``None`` must match exactly; floats must agree to
``rel_tol=1e-9, abs_tol=1e-9``, since the window kernel may reorder sums.

Regenerate the files (only when a payload change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from meanlab import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = ABS_TOL = 1e-9

_SUBCOMMANDS = {"measure": ("classify", "weakmean"), "multiplier": ("multiplier",),
                "lln": ("lln",), "maxent": ("maxent",), "axioms": ("axioms",),
                "spectral": ("spectral",)}


def _pairs() -> list[tuple[str, str]]:
    return [(name, sub) for name in sorted(cli._example_documents())
            for sub in _SUBCOMMANDS[name.split("_", 1)[0]]]


def _golden_path(name: str, sub: str) -> Path:
    return GOLDEN / f"{Path(name).stem}.{sub}.json"


def _run_pair(tmp: Path, name: str, sub: str) -> dict:
    doc = tmp / name
    doc.write_text(json.dumps(cli._example_documents()[name]))
    out = tmp / f"out_{Path(name).stem}_{sub}"
    code = cli.run([sub, "--input", str(doc), "--out", str(out)])
    report = json.loads((out / f"{sub}_report.json").read_text())
    return {"exit": code, "results": report["results"]}


def _assert_close(got, want, path="results"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def test_every_example_pair_has_a_golden_file():
    assert len(_pairs()) == 26
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == \
        sorted(_golden_path(n, s).name for n, s in _pairs())


@pytest.mark.parametrize("name,sub", _pairs())
def test_golden_payload(tmp_path, name, sub):
    want = json.loads(_golden_path(name, sub).read_text())
    got = _run_pair(tmp_path, name, sub)
    assert got["exit"] == want["exit"]
    _assert_close(got["results"], want["results"])


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, sub in _pairs():
            payload = _run_pair(Path(tmp), name, sub)
            _golden_path(name, sub).write_text(
                json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
            print(f"wrote {_golden_path(name, sub).name}", file=sys.stderr)
