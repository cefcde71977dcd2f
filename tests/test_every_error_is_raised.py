"""Every exception class of ``src/corkscrew/errors.py``, and
``cli.UsageError``, appears in a ``raise`` statement somewhere in
``src/``: by name, or as an attribute of its module.  Read from the
sources with ``ast``, so nothing is imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"


def _classes(tree, names=None) -> list:
    """The top-level classes of a module, or those of them named."""
    return [node.name for node in tree.body
            if isinstance(node, ast.ClassDef)
            and (names is None or node.name in names)]


def _raised(trees) -> set:
    """Every name or attribute read in the exception of a ``raise``; the
    cause after ``from`` is not raised."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for sub in ast.walk(node.exc):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        out.add(sub.attr)
    return out


def _never_raised(classes: list, trees) -> list:
    raised = _raised(trees)
    return [name for name in classes if name not in raised]


def test_every_error_class_is_raised():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = (_classes(trees["errors.py"])
               + _classes(trees["cli.py"], {"UsageError"}))
    assert "WindowUnstableError" in classes and "UsageError" in classes
    assert _never_raised(classes, trees.values()) == []


def test_the_check_sees_a_dead_error_class():
    errors = ast.parse("class Base(Exception):\n    pass\n"
                       "class Dead(Base):\n    pass\n"
                       "class Caught(Base):\n    pass\n"
                       "class ByModule(Base):\n    pass\n")
    user = ast.parse("from . import errors\n"
                     "from .errors import Base, Caught, Dead\n"
                     "def f(x):\n"
                     "    try:\n        raise Base(f'{x}')\n"
                     "    except Caught as exc:\n"
                     "        raise errors.ByModule() from exc\n"
                     "    return Dead\n")
    assert _never_raised(_classes(errors), [errors, user]) == [
        "Dead", "Caught"]
