"""Every name a source module defines has a caller outside the tests.

Stdlib ``ast`` only.  A private name is one with a leading underscore that is
not a dunder: a module-level function, class or assigned name, or a method or
class attribute.  It counts as used when any module of ``src/meanlab`` loads
it as a name or as an attribute (``_f(...)``, ``self._f(...)``,
``measures._f``); being imported, assigned or defined does not count.

A public name is one listed in a module's literal ``__all__``.  It counts as
used when a file of ``src/meanlab``, ``demos``, ``perfbench`` or ``tools``
loads it the same way; a name given as a string (``getattr``, perfbench's
spans) does not count.  Names match by spelling alone, so a public name
passes when an unrelated attribute shares it: ``maxent.entropy`` passes
through ``MaxEntSolution.entropy``.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SOURCES = sorted((_ROOT / "src" / "meanlab").glob("*.py"))
_CALLERS = sorted(p for d in ("src/meanlab", "demos", "perfbench", "tools")
                  for p in (_ROOT / d).rglob("*.py"))

# Public names kept without a caller outside the tests, with the reason.
_KEPT_UNCALLED = {
    "finite_comb": "the one public constructor of an arbitrary finite atomic measure; "
                   "the ledger's far-atom row builds on it",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _defined(body, where: str):
    """(where, line, name) for each private name a module or class body defines."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((where, node.lineno, name) for name in names if _private(name))
        if isinstance(node, ast.ClassDef):
            yield from _defined(node.body, where)


def _loaded(trees) -> set[str]:
    """Every name the trees load as a name or as an attribute."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``where:line name`` for each private definition in ``sources`` (module
    name -> source text) that no module loads."""
    trees = {where: ast.parse(text) for where, text in sources.items()}
    loaded = _loaded(trees.values())
    return [f"{where}:{line} {name}"
            for where, tree in trees.items()
            for where, line, name in _defined(tree.body, where)
            if name not in loaded]


def uncalled_public_names(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``where:line name`` for each name in the literal ``__all__`` of a module
    of ``sources`` (module name -> source text) that no file of ``callers``
    loads."""
    loaded = _loaded(ast.parse(text) for text in callers.values())
    return [f"{where}:{elt.lineno} {elt.value}"
            for where, text in sources.items()
            for node in ast.parse(text).body
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
            if elt.value not in loaded]


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _SOURCES}
    callers = {str(p): p.read_text(encoding="utf-8") for p in _CALLERS}
    flagged = uncalled_public_names(sources, callers)
    # a kept name that gains a caller leaves the table too
    assert sorted(f.split()[1] for f in flagged) == sorted(_KEPT_UNCALLED), flagged


def test_checker_sees_an_uncalled_public_name():
    lib = ('__all__ = ["mean", "ladder", "helper"]\n\n'
           "def mean():\n    return helper()\n\ndef ladder():\n    pass\n\n"
           "def helper():\n    return 0\n")
    user = "import lib\n\nprint(lib.mean(), lib.__all__, 'ladder')\n"
    assert uncalled_public_names({"lib.py": lib}, {"lib.py": lib, "user.py": user}) == [
        "lib.py:1 ladder"]


def test_package_has_no_unused_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _SOURCES}
    assert unused_private_names(sources) == []


def test_checker_sees_an_unused_private_name():
    lib = ("_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n\n"
           "class Family:\n    _factor = 40.0\n\n"
           "    def __init__(self):\n        self._cache = None\n\n"
           "    def _bound(self):\n        return self._factor\n\n"
           "    def _cutoff(self):\n        return 1.0\n")
    user = "from lib import _helper\n\ndef mean(fam):\n    return _helper() + fam._bound()\n"
    assert unused_private_names({"lib.py": lib, "user.py": user}) == [
        "lib.py:2 _DEAD", "lib.py:16 _cutoff"]
