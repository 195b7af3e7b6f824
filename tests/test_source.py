import ast
from collections import Counter
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


def _unreferenced_private_functions(trees: dict) -> list[str]:
    """Private functions and methods (``_name``, not dunder) whose name is
    used nowhere outside their own body, as a name or an attribute."""

    def names(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    used = sum((names(tree) for tree in trees.values()), Counter())
    return [
        f"{label}:{node.name}"
        for label, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] <= names(node)[node.name]
    ]


def test_every_private_helper_is_used():
    # a helper left behind by a refactor is dead code; every private
    # function or method must be referenced from somewhere else in centra
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _unreferenced_private_functions(trees) == []


def test_private_helper_check_finds_dead_helpers():
    source = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class A:\n"
        "    def _dead(self):\n        return self._used_method()\n"
        "    def _used_method(self):\n        return _used()\n"
        "    def __repr__(self):\n        return ''\n"
    )
    trees = {"m.py": ast.parse(source)}
    assert _unreferenced_private_functions(trees) == ["m.py:_recursive", "m.py:_dead"]
