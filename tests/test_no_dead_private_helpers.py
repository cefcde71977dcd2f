"""Every underscore-prefixed top-level function or class of a
``src/corkscrew`` module, and every underscore-prefixed method of a
class there, is read somewhere in ``src/``, outside its own body: by
name, or as an attribute (of its module, an instance or a class).  Read
from the sources with ``ast``, so nothing is imported."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node) -> list:
    """Every name the node loads, and every attribute it reads."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _private(node) -> bool:
    return (isinstance(node, _DEFS) and node.name.startswith("_")
            and not node.name.startswith("__"))


def _unread_private(trees: dict) -> list:
    """(module, name) of every private top-level function or class, and
    (module, "Class.method") of every private method, that no module
    reads outside the definition itself."""
    defs, reads = [], Counter()
    for module, tree in trees.items():
        reads.update(_reads(tree))
        for node in tree.body:
            if _private(node):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(module, f"{node.name}.{sub.name}", sub)
                         for sub in node.body
                         if _private(sub) and not isinstance(sub,
                                                             ast.ClassDef)]
    return [(module, label) for module, label, node in defs
            if reads[node.name] == _reads(node).count(node.name)]


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


def test_the_check_sees_a_dead_private_method():
    trees = {
        "a.py": ast.parse(
            "class Hom:\n"
            "    def __init__(self):\n        self.top = self._scan()\n"
            "    def _scan(self):\n        return 0\n"
            "    def _locate(self):\n        return self._locate()\n"
            "    def _dead(self):\n        return self._scan()\n"
            "    @property\n    def _read(self):\n        return 1\n"),
        "b.py": ast.parse("from .a import Hom\n"
                          "def f(h):\n    return h._read\n"),
    }
    assert _unread_private(trees) == [("a.py", "Hom._locate"),
                                      ("a.py", "Hom._dead")]
