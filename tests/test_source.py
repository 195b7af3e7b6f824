import ast
from pathlib import Path

import centra

SOURCES = sorted(Path(centra.__file__).resolve().parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # assert statements vanish under python -O, and a raised AssertionError
    # escapes the CLI's error mapping; invariants raise InvariantError
    assert len(SOURCES) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_assertion_error_check_finds_both_forms():
    tree = ast.parse("raise AssertionError('x')\nraise AssertionError\nraise ValueError\n")
    assert [_raises_assertion_error(n) for n in tree.body] == [True, True, False]
