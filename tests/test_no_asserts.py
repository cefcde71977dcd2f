"""Library checks must be explicit raises: ``python -O`` strips every
``assert`` statement, so none may appear in the package sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corkscrew"


def test_package_sources_hold_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
