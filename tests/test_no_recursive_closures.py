"""No nested function in the package calls itself: a closure that names
itself forms a reference cycle with its cell, so each call's closure and
everything it holds wait for the cyclic collector instead of being freed
when the call returns.  Recursion goes in a module-level function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shukla"


def recursive_closures(source, name):
    """The nested functions of source that reference their own name, as
    'name:line: function'."""
    sites = []
    for outer in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for node in ast.walk(inner)):
                sites.append((inner.lineno, inner.name))
    return [f"{name}:{line}: {func}" for line, func in sorted(set(sites))]


def test_scan_catches_a_recursive_closure():
    source = (
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "def outer():\n"
        "    def rec(i):\n"
        "        return rec(i - 1) if i else 0\n"
        "    def plain(i):\n"
        "        return i\n"
        "    return rec(3) + plain(1)\n"
        "class K:\n"
        "    def method(self):\n"
        "        def walk(x):\n"
        "            return [walk(y) for y in x]\n"
        "        return walk\n"
    )
    assert recursive_closures(source, "x.py") == ["x.py:4: rec", "x.py:11: walk"]


def test_package_has_no_recursive_closure():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    sites = []
    for path in paths:
        sites += recursive_closures(path.read_text(encoding="utf-8"), path.name)
    assert not sites, sites
