"""Every name a source module imports is used in that module.

Stdlib ``ast`` only: a name counts as used when it appears as a name node
anywhere in the module (annotations included).  ``from __future__`` imports
and the re-exports of the package ``__init__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).parent.parent / "src" / "meanlab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_source_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom typing import Optional, Sequence\n" \
             "def f(x: Optional[int]) -> int:\n    return x\n"
    assert unused_imports(source) == ["line 2: math", "line 3: Sequence"]
