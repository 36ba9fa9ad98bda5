"""Properties of the library source itself."""
import ast
import pathlib

import confighom

SOURCE = pathlib.Path(confighom.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a check on exact integer math or
    # on input must raise an error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
