"""Statements of ``src/meanlab`` that no benchmark operation, CLI example or demo runs.

Traces, with the standard library's ``sys.settrace``, which lines of the
meanlab modules run under up to three sources, then prints per module the
statements none of them executed, grouped by the function that holds them:

* ``bench``: the distinct operations of the ``verdicts`` and ``experiments``
  workloads at each seed, every round, and their warm-up operations
  (``perfbench/workloads.py``, imported and never modified);
* ``cli``: every run of ``tools/example_digest.py``, one per document that
  ``meanlab --emit-examples`` writes and subcommand that reads it;
* ``demos``: every script under ``demos/``, run in this process.

    python tools/traffic_lines.py --sources bench,cli,demos --seeds 7,11,23

A statement is a line that starts an ``ast`` statement and carries bytecode
(so a function's docstring is none); a function none of whose statements
ran is printed as ``never called``.
Lambdas and generator expressions that never ran are listed the same way,
since their lines also belong to the statement around them.  A traced pass
over the CLI examples takes about 1.2 s, and all three sources at seeds
7, 11 and 23 about 8 s, on a 2-vCPU VM.

Uses only the standard library and the meanlab found on the import path, or,
when there is none, the one in this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("bench", "cli", "demos")
if importlib.util.find_spec("meanlab") is None:  # none on the path: this checkout's own
    sys.path.insert(0, str(ROOT / "src"))
PACKAGE = os.path.dirname(importlib.util.find_spec("meanlab").origin)  # not imported yet

class Tracer:
    """What ran of meanlab: ``ran`` holds (file, line) of every line event,
    ``called`` (file, qualname, first line) of every call."""

    def __init__(self):
        self.ran: set[tuple[str, int]] = set()
        self.called: set[tuple[str, str, int]] = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        self.called.add((code.co_filename, code.co_qualname, code.co_firstlineno))
        return self._line

    def run(self, sources: list[str], seeds: list[int]) -> None:
        """Run each source under the tracer; meanlab is imported inside it,
        so its module-level statements count too."""
        runners = {"bench": _run_bench, "cli": _run_cli, "demos": _run_demos}
        sys.settrace(self._call)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                for source in sources:
                    runners[source](seeds)
        finally:
            sys.settrace(None)


def _run_bench(seeds: list[int]) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import meanlab
    import workloads
    specs = []
    for workload, rounds in workloads.DISTINCT_ROUNDS.items():
        specs += workloads.warmup_specs(workload)
        for seed in seeds:
            for r in range(rounds):
                specs += workloads.ROUNDS[workload](seed, r)
    raised = 0
    for spec in specs:
        try:
            workloads.run_op(meanlab, spec)
        except Exception:  # a failing operation still ran its lines
            raised += 1
    print(f"bench: {raised} of {len(specs)} operations raised", file=sys.stderr)


def _run_cli(seeds: list[int]) -> None:
    sys.path.insert(0, str(ROOT / "tools"))
    import example_digest
    example_digest.digest_lines()


def _run_demos(seeds: list[int]) -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(here)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _statements(tree: ast.AST) -> dict[int, str]:
    """Line -> qualified name of the innermost function or class holding
    the statement that starts there (``<module>`` at the top)."""
    owners: dict[int, str] = {}

    def visit(node, owner, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                owners.setdefault(child.lineno, owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if scope == "module" else (
                    f"{owner}.{'<locals>.' if scope == 'function' else ''}{child.name}")
                visit(child, name, "class" if isinstance(child, ast.ClassDef) else "function")
            else:
                visit(child, owner, scope)

    visit(tree, "<module>", "module")
    return owners


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def report(tracer: Tracer) -> list[str]:
    """Per module, the statements that never ran, by owner, and the
    lambdas and generator expressions that were never called."""
    out = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        codes = list(_code_objects(code))
        with_bytecode = {line for c in codes for _, line in dis.findlinestarts(c) if line}
        owners = {line: owner for line, owner in _statements(ast.parse(source)).items()
                  if line in with_bytecode}
        missed: dict[str, list[int]] = defaultdict(list)
        for line in sorted(owners):
            if (str(path), line) not in tracer.ran:
                missed[owners[line]].append(line)
        ran = {owners[line] for line in owners if (str(path), line) in tracer.ran}
        out.append(f"{path.name}: {sum(map(len, missed.values()))} of {len(owners)} "
                   "statements never run")
        for owner, lines in sorted(missed.items(), key=lambda kv: kv[1][0]):
            where = _ranges(lines)
            out.append(f"  {owner}: lines {where}" if owner in ran
                       else f"  {owner}: never called ({where})")
        for c in codes:
            if c.co_name in ("<lambda>", "<genexpr>") and (
                    str(path), c.co_qualname, c.co_firstlineno) not in tracer.called:
                out.append(f"  {c.co_qualname}: never called (line {c.co_firstlineno})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sources", default=",".join(SOURCES),
                        help="comma-separated subset of " + ", ".join(SOURCES))
    parser.add_argument("--seeds", default="7,11,23", help="benchmark seeds")
    args = parser.parse_args(argv)
    sources = args.sources.split(",")
    if not set(sources) <= set(SOURCES):
        parser.error(f"--sources must name some of {', '.join(SOURCES)}")
    tracer = Tracer()
    tracer.run(sources, [int(s) for s in args.seeds.split(",")])
    print("\n".join(report(tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
