"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import farkaskit

PACKAGE = Path(farkaskit.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts; a forced identity raises
    # InvariantViolation instead, so it holds under every interpreter flag
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
