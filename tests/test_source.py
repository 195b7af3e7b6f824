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


def _names(node) -> Counter:
    """How often each name is used in ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreferenced_functions(trees: dict, private: bool, used: Counter) -> list[str]:
    """Private (``_name``, not dunder) or public functions and methods of
    ``trees`` whose name ``used`` holds no more often than their own body."""
    return [
        f"{label}:{node.name}"
        for label, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") == private
        and not node.name.endswith("__")
        and used[node.name] <= _names(node)[node.name]
    ]


def _parse(paths) -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def _used(trees: dict) -> Counter:
    return sum((_names(tree) for tree in trees.values()), Counter())


def test_every_private_helper_is_used():
    # a helper left behind by a refactor is dead code; every private
    # function or method must be referenced from somewhere else in centra
    trees = _parse(SOURCES)
    assert _unreferenced_functions(trees, True, _used(trees)) == []


def test_every_public_function_is_used():
    # API that nothing calls is dead code too: every public function or
    # method of centra must be referenced from centra, its tests or its bench
    repo = Path(__file__).resolve().parents[1]
    callers = [*repo.glob("tests/*.py"), *repo.glob("perfbench/*.py")]
    assert len(callers) > 5
    trees = _parse(SOURCES)
    used = _used(trees) + sum(
        (_names(ast.parse(p.read_text(), str(p))) for p in callers), Counter()
    )
    assert _unreferenced_functions(trees, False, used) == []


def test_private_helper_check_finds_dead_helpers():
    source = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class A:\n"
        "    def _dead(self):\n        return self._used_method()\n"
        "    def _used_method(self):\n        return _used()\n"
        "    def __repr__(self):\n        return ''\n"
        "def public(n):\n    return public(n - 1)\n"
        "def called_elsewhere():\n    return 1\n"
    )
    trees = {"m.py": ast.parse(source)}
    used = _used(trees)
    assert _unreferenced_functions(trees, True, used) == [
        "m.py:_recursive", "m.py:_dead"]
    assert _unreferenced_functions(trees, False, used) == [
        "m.py:public", "m.py:called_elsewhere"]
    used += _names(ast.parse("m.called_elsewhere()"))
    assert _unreferenced_functions(trees, False, used) == ["m.py:public"]
