"""Every name that a ``src/corkscrew`` module imports is read somewhere in
that module.  ``__future__`` imports and the package ``__init__``, whose
imports are its re-exports, are exempt.  Read from the sources with
``ast``, so nothing is imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"


def _unused_imports(tree) -> list:
    """(line, name) of every imported name the module never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_package_modules_read_every_import():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line} imports {name} unread"
                  for line, name in _unused_imports(tree)]
    assert found == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as js\n"
                     "from .algebra import gr_add, ones\n"
                     "def f(x):\n    from .complexes import landing\n"
                     "    return [ones(x), js]\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "gr_add"),
                                     (6, "landing")]
