"""Every underscore-prefixed top-level function or class of a
``src/corkscrew`` module is read somewhere in ``src/``, outside its own
body: by name, or as an attribute of its module.  Read from the sources
with ``ast``, so nothing is imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"


def _reads(node) -> list:
    """Every name the node loads, and every attribute it reads."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _unread_private(trees: dict) -> list:
    """(module, name) of every private top-level function or class that
    no module reads outside the definition itself."""
    defs, reads = [], []
    for module, tree in trees.items():
        for node in tree.body:
            own = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                   and node.name.startswith("_")
                   and not node.name.startswith("__"))
            if own:
                defs.append((module, node.name))
            reads += [(node.name if own else None, name)
                      for name in _reads(node)]
    return [(module, name) for module, name in defs
            if not any(r == name and owner != name for owner, r in reads)]


def test_package_modules_read_every_private_helper():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    assert _unread_private(trees) == []


def test_the_check_sees_a_dead_private_helper():
    trees = {
        "a.py": ast.parse("def _used(x):\n    return x\n"
                          "def _recursive(n):\n    return _recursive(n)\n"
                          "class _Dead:\n    pass\n"
                          "def __dunder__():\n    pass\n"),
        "b.py": ast.parse("from . import a\n"
                          "def f():\n    return a._used(1)\n"),
    }
    assert _unread_private(trees) == [("a.py", "_recursive"),
                                      ("a.py", "_Dead")]
