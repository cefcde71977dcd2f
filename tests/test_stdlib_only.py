"""The package stays pure standard library: every module that
``src/corkscrew`` imports is in ``sys.stdlib_module_names`` or is the
package itself.  Read from the sources with ``ast``, so nothing is
imported and no network is needed."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"


def _imported_roots(tree) -> list:
    """(line, top-level module) of every absolute import in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0])
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"corkscrew"}
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line} imports {root}"
                  for line, root in _imported_roots(tree)
                  if root not in allowed]
    assert found == []


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import json\nfrom numpy import linalg\n"
                     "from .algebra import ones\n")
    assert _imported_roots(tree) == [(1, "json"), (2, "numpy")]
