import ast
from pathlib import Path

import centra

SOURCES = sorted(Path(centra.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # assert statements vanish under python -O; invariants raise InvariantError
    assert len(SOURCES) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
