import ast
from pathlib import Path

import qtransfer

SRC = Path(qtransfer.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so invariants must raise explicitly
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found
