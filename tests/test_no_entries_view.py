"""`SparseMatrix.entries` builds a (row, col) dict from the stored
columns on every read, in O(nnz), so the package itself never reads it:
every module works on `columns`.  Tests and benchmarks may read it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shukla"


def entries_sites(source, name):
    """The lines of source that touch an `.entries` attribute, as
    'name:line'."""
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr == "entries"]


def test_scan_catches_every_entries_access():
    source = ("a = m.entries\nfor k in m.entries.items(): pass\n"
              "def entries(self): pass\nentries = {}\nf(entries=entries)\n")
    assert entries_sites(source, "x.py") == ["x.py:1", "x.py:2"]


def test_package_reads_no_entries_view():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    sites = []
    for path in paths:
        sites += entries_sites(path.read_text(encoding="utf-8"), path.name)
    assert not sites, sites
