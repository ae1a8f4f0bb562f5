"""The package computes with exact integers and rationals only: no true
division, no float literal and no float() or round() anywhere in it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shukla"


def float_sites(source, name):
    """The lines of source that may make a float, as 'name:line: what'."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "/=" if isinstance(node, ast.AugAssign) else "/"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            what = f"{node.func.id}()"
        else:
            continue
        sites.append((node.lineno, what))
    return [f"{name}:{line}: {what}" for line, what in sorted(sites)]


def test_scan_catches_every_float_source():
    source = "a = 1 / b\nc /= 2\nd = 0.5\ne = float(f)\ng = round(h)\nk = a // b\n"
    assert [s.split(": ")[1] for s in float_sites(source, "x.py")] == [
        "/", "/=", "float literal 0.5", "float()", "round()"]


def test_package_makes_no_float():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    sites = []
    for path in paths:
        sites += float_sites(path.read_text(encoding="utf-8"), path.name)
    assert not sites, sites
