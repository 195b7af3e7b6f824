import ast
from collections import Counter
from pathlib import Path

import centra

SOURCES = sorted(Path(centra.__file__).resolve().parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
CALLERS = [*REPO.glob("tests/*.py"), *REPO.glob("perfbench/*.py")]


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
    """How often each name is used in ``node``: ``name`` as a variable,
    ``.name`` as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else "." + n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _defs(trees: dict):
    """(label, node, whether it is a method) for each function of ``trees``."""
    for label, tree in trees.items():
        methods = {
            id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield label, node, id(node) in methods


def _uses(names: Counter, name: str, method: bool) -> int:
    """Uses of a function's name; a method is used only as an attribute
    (``x.name``), so a variable of the same name does not hide it."""
    return names["." + name] + (0 if method else names[name])


def _unreferenced_functions(trees: dict, private: bool, used: Counter) -> list[str]:
    """Private (``_name``, not dunder) or public functions and methods of
    ``trees`` that ``used`` holds no more often than their own body."""
    return [
        f"{label}:{node.name}"
        for label, node, method in _defs(trees)
        if node.name.startswith("_") == private
        and not node.name.endswith("__")
        and _uses(used, node.name, method) <= _uses(_names(node), node.name, method)
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
    assert len(CALLERS) > 5
    trees = _parse(SOURCES)
    used = _used(trees) + sum(
        (_names(ast.parse(p.read_text(), str(p))) for p in CALLERS), Counter()
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


def test_method_check_ignores_same_named_variables():
    source = (
        "class F:\n"
        "    def sub(self, a):\n        return a\n"
        "    def add(self, a):\n        return a\n"
        "def main(F):\n    sub = 1\n    return F.add(sub)\n"
        "main(F)\n"
    )
    trees = {"m.py": ast.parse(source)}
    assert _unreferenced_functions(trees, False, _used(trees)) == ["m.py:sub"]


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in the syntax trees ``trees`` by the name it calls:
    ``name`` for a variable, ``.name`` for an attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                key = n.func.id if isinstance(n.func, ast.Name) else "." + n.func.attr
                calls.setdefault(key, []).append(n)
    return calls


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``: by keyword, at
    ``position`` (None for keyword-only), or through ``*args`` or
    ``**kwargs``."""
    return (
        any(k.arg in (name, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (position is not None and len(call.args) > position)
    )


def _unpassed_defaults(trees: dict, calls: dict) -> list[str]:
    """Defaulted parameters of the public functions and methods of ``trees``
    that no call in ``calls`` passes, outside the function's own body; a
    method's positions skip ``self`` or ``cls``."""
    out = []
    for label, node, method in _defs(trees):
        if node.name.startswith("_"):
            continue
        a = node.args
        params = a.posonlyargs + a.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        skip = int(method and not static)
        defaulted = [
            (i - skip, p.arg)
            for i, p in enumerate(params)
            if i >= len(params) - len(a.defaults)
        ] + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        own = {id(n) for n in ast.walk(node)}
        sites = calls.get("." + node.name, []) + ([] if method else calls.get(node.name, []))
        sites = [c for c in sites if id(c) not in own]
        out += [
            f"{label}:{node.name}({name})"
            for position, name in defaulted
            if not any(_passes(c, position, name) for c in sites)
        ]
    return out


def test_every_default_parameter_is_passed():
    # a default that no caller overrides is a knob nothing turns: the value
    # belongs inside the function
    trees = _parse(SOURCES)
    calls = _calls([*trees.values(), *_parse(CALLERS).values()])
    assert _unpassed_defaults(trees, calls) == []


def test_default_parameter_check_finds_unpassed_defaults():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4, g=5):\n    return f(a, b, c, d=d, e=e, g=g)\n"
        "class K:\n"
        "    def m(self, a, b=1):\n        return a\n"
        "    @staticmethod\n"
        "    def s(a, b=1):\n        return a\n"
        "def h(x=0):\n    return x\n"
        "f(0, 1)\nf(0, d=1)\nK().m(0, 1)\nK.s(0)\nargs = ()\nh(*args)\n"
    )
    trees = {"m.py": ast.parse(source)}
    assert _unpassed_defaults(trees, _calls(trees.values())) == [
        "m.py:f(c)", "m.py:f(e)", "m.py:f(g)", "m.py:s(b)"]
    more = ast.parse("f(0, 1, 2, **{})\nK.s(0, 1)\n")
    assert _unpassed_defaults(trees, _calls([*trees.values(), more])) == []
