"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import tenrank

PACKAGE = Path(tenrank.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so runtime invariants must be explicit raises
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
