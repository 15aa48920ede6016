"""One sha256 per example run of the meanlab CLI, to compare two source trees.

Writes the example documents of ``meanlab --emit-examples`` to a temporary
directory and runs each in-process through ``meanlab.cli.run`` at
``--seed 7``: measure documents under ``classify`` and ``weakmean``, every
other document under the subcommand its name starts with.  Each run's
digest covers its exit code, stdout, stderr, the warnings it raised
(category and message) and every file it wrote, with ``wall_time_s`` and
``config.input`` (a temporary path) removed from the report.  The last line
is a digest over all the others.

    python tools/example_digest.py > new.txt
    PYTHONPATH=../other-tree/src python tools/example_digest.py > old.txt
    diff old.txt new.txt

Uses only the standard library and the meanlab found on the import path, or,
when there is none, the one in this checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

if importlib.util.find_spec("meanlab") is None:  # none on the path: this checkout's own
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meanlab import cli  # noqa: E402

SEED = "7"


def _run_digest(doc: Path, subcommand: str, out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.run([subcommand, "--input", str(doc), "--out", str(out), "--seed", SEED])
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue(),
                 *(f"{w.category.__name__}: {w.message}" for w in caught)):
        h.update(part.encode() + b"\0")
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == f"{subcommand}_report.json":
            report = json.loads(data)
            del report["wall_time_s"], report["config"]["input"]
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def digest_lines() -> list[str]:
    """``<sha256>  <document> <subcommand>`` per run, then ``<sha256>  total``."""
    with tempfile.TemporaryDirectory() as tmp:
        docs = Path(tmp) / "docs"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run(["--emit-examples", "--out", str(docs)]) != 0:
                raise RuntimeError("meanlab --emit-examples failed")
        lines = []
        for doc in sorted(docs.glob("*.json")):
            prefix = doc.name.split("_", 1)[0]
            for sub in ("classify", "weakmean") if prefix == "measure" else (prefix,):
                digest = _run_digest(doc, sub, Path(tmp) / "runs" / f"{doc.stem}-{sub}")
                lines.append(f"{digest}  {doc.name} {sub}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"{total}  total"]


if __name__ == "__main__":
    sys.stdout.write("\n".join(digest_lines()) + "\n")
