"""Every private name a source module defines is used somewhere in the package.

Stdlib ``ast`` only.  A private name is one with a leading underscore that is
not a dunder: a module-level function, class or assigned name, or a method or
class attribute.  It counts as used when any module of ``src/meanlab`` loads
it as a name or as an attribute (``_f(...)``, ``self._f(...)``,
``measures._f``); being imported, assigned or defined does not count.
"""

import ast
from pathlib import Path

_SOURCES = sorted((Path(__file__).parent.parent / "src" / "meanlab").glob("*.py"))


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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``where:line name`` for each private definition in ``sources`` (module
    name -> source text) that no module loads."""
    trees = {where: ast.parse(text) for where, text in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{where}:{line} {name}"
            for where, tree in trees.items()
            for where, line, name in _defined(tree.body, where)
            if name not in loaded]


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
