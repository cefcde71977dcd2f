"""Every public top-level name of a ``src/corkscrew`` module (a function,
a class or an assigned constant) is read somewhere in ``src/``, outside
its own definition, or is pinned below with the reason it stays.  A read
is a load of the name in its own module, or of the name it is imported
as with ``from .module import name``; ``__init__``'s re-exports are
imports, not reads.  Read from the sources with ``ast``, so nothing is
imported.

The pinned list can only shrink: a new unread name fails, and so does a
pinned name that is deleted or gains a reader in ``src/``."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

PINNED = {
    ("algebra.py", "solve_f2"): "patched by perfbench's tracer",
    ("algebra.py", "f2_rank"): "patched by perfbench's tracer",
    ("connected.py", "recognize_standard"): "patched by perfbench's tracer",
    ("homotopy.py", "self_local_space"): "patched by perfbench's tracer",
    ("complexes.py", "serialize"): "writes perfbench's input files",
    ("invariants.py", "homology_u"): "a perfbench query",
    ("verdicts.py", "replay_certificate"): "a perfbench query",
    ("homotopy.py", "commutes_up_to_homotopy"): "read by test_acceptance",
    ("invariants.py", "delta_zero_iff_local"): "read by test_acceptance",
    ("knot_table.py", "census_names"): "read by test_acceptance",
    ("verdicts.py", "cor51_rule"): "read by test_acceptance",
    ("verdicts.py", "torus_2_arf"): "read by test_acceptance",
    ("complexes.py", "shift"): "tests build inputs with it",
}


def _top_level(tree) -> list:
    """(name, node) of every public name bound at the module's top."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(sub.id, node) for target in targets
                    for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def _loads(node) -> Counter:
    return Counter(sub.id for sub in ast.walk(node)
                   if isinstance(sub, ast.Name)
                   and isinstance(sub.ctx, ast.Load))


def _unread_public(trees: dict) -> list:
    """(module, name) of every public top-level name that no module reads
    outside the definition itself."""
    loads = {module: _loads(tree) for module, tree in trees.items()}
    reads = Counter()
    for module, tree in trees.items():
        reads.update({(module, name): loads[module][name]
                      for name, _ in _top_level(tree)})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = f"{node.module or '__init__'}.py"
                reads.update({(source, alias.name):
                              loads[module][alias.asname or alias.name]
                              for alias in node.names})
    return [(module, name) for module, tree in trees.items()
            for name, node in _top_level(tree)
            if reads[module, name] == _loads(node)[name]]


def test_package_modules_read_every_public_name_but_the_pinned():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    assert sorted(_unread_public(trees)) == sorted(PINNED)


def test_the_check_sees_an_unread_public_name():
    trees = {
        "a.py": ast.parse("LIMIT = 3\nSEEN = 4\n"
                          "def used(x):\n    return x + SEEN\n"
                          "def recursive(n):\n    return recursive(n)\n"
                          "def shift(x):\n    return x\n"
                          "class Dead:\n    pass\n"),
        "b.py": ast.parse("from .a import used as use, Dead\n"
                          "def f(limit, shift):\n"
                          "    return use(shift) + LIMIT + limit.Dead\n"),
        "__init__.py": ast.parse("from .a import shift\n"),
    }
    assert _unread_public(trees) == [("a.py", "LIMIT"),
                                     ("a.py", "recursive"),
                                     ("a.py", "shift"),
                                     ("a.py", "Dead"),
                                     ("b.py", "f")]
