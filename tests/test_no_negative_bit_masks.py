"""No ``x & -x`` or ``a & ~b`` in ``src/corkscrew`` outside the pinned
functions below, each with the reason it stays.  On a wide int either
form builds a negative int the size of the word, which costs more than
the non-negative forms: a loop whose result does not depend on the
order walks the set bits from the top (``w.bit_length() - 1``), and a
subset test reads ``col & mask != col``.  Read from the sources with
``ast``, so nothing is imported.

A function is named by its dotted path inside its module
(``Class.method``, ``outer.inner``).  The pinned list can only shrink:
a new function with either form fails, and so does a pinned one that no
longer has it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"

PINNED = {
    ("algebra.py", "Echelon.reduce"):
        "clears the lowest pivot first; the order is the echelon's rule",
    ("algebra.py", "Echelon.insert"):
        "a stored row's pivot is its lowest set bit",
    ("algebra.py", "ColumnSpan.solve"):
        "the refuting functional starts at the residue's lowest bit",
    ("connected.py", "_sweep"):
        "partners are tried in increasing order; kept moves depend on it",
    ("connected.py", "_peel_boxes"):
        "reads a peeled vector's grading at its lowest bit",
    ("complexes.py", "Endomorphism.grading_violation"):
        "error path: the message names the lowest offending entry",
    ("complexes.py", "d_squared_violation"):
        "error path: the message names the lowest nonzero entry",
    ("invariants.py", "UComplex.__post_init__"):
        "error path: the message names the lowest offending entry",
}


def _negative(node) -> bool:
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.Invert)))


def _negative_masks(tree) -> set:
    """Dotted names of the functions holding ``x & -y`` or ``x & ~y``
    (either side, or ``x &= -y``); "" for the module's top level."""
    found = set()

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            path = path + (node.name,)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
              and (_negative(node.left) or _negative(node.right))):
            found.add(path)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.op, ast.BitAnd) and _negative(node.value)):
            found.add(path)
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, ())
    return {".".join(path) for path in found}


def test_no_negative_bit_masks_outside_the_pinned_functions():
    found = {(path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _negative_masks(ast.parse(
                 path.read_text(encoding="utf-8"), str(path)))}
    assert found
    assert sorted(found) == sorted(PINNED)


def test_the_check_sees_every_form():
    tree = ast.parse(
        "TOP = A & ~B\n"
        "def low(w):\n    return w & -w\n"
        "def left(w):\n    return -w & w\n"
        "def kept(w, m):\n    return w & m != w and w ^ (w & 1)\n"
        "def aug(w, m):\n    w &= ~m\n    return w\n"
        "class C:\n"
        "    def m(self, w):\n"
        "        def inner(v):\n            return v & ~w\n"
        "        return inner(w) - w\n")
    assert _negative_masks(tree) == {"", "low", "left", "aug", "C.m.inner"}
