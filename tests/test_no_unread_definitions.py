"""Every module-level function and class of the package is read in the
package or the benchmark, apart from the definitions KEEP names.

The test suite does not count as a reader: a definition that only tests
reach is code that no pipeline, CLI command or benchmark runs.  This is
a one-hop check.  A definition read only by another unread definition
passes, so deleting an unread function can leave its helpers unread in
turn, and the next run names them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shukla"
BENCHMARK = ROOT / "perfbench"

# unread definitions that stay, each with its reason in ROADMAP.md
KEEP = {
    "L_complex": "item 2: the paper's level complexes, which give the E2 "
                 "page for HH on the small complexes of theorem 3.0",
    "Lprime_complex": "item 2: theorem 3.0's truncated complexes, to be "
                      "pinned against cyclic_e2 in three variables",
    "cyclic_e2": "keep-list: the reference for test_second_page_identity "
                 "(theorem 3.0's E'2), and item 8 uses it",
    "slice_homology": "keep-list: item 4 uses it for Koszul H_1",
}

# a tracer span such as "linalg.dense_snf" or "mixed._column_graded_pieces"
SPAN = re.compile(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)(\.\w+)*")


def definitions(source, name):
    """The functions and classes that source defines at module level."""
    return {node.name for node in ast.parse(source, filename=name).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def reads(source, name, modules):
    """The names source reads: loaded names, loaded attributes, and the
    second part of each dotted string whose first part is in modules."""
    out = set()
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            span = SPAN.fullmatch(node.value)
            if span and span[1] in modules:
                out.add(span[2])
    return out


def test_scan_reads_names_attributes_and_spans():
    source = ("import m\nx = f()\nm.g.h = 1\ny = m.k\n"
              "SPANS = ['mod.span', 'mod.count.nnz', 'other.no', 'not a.span']\n")
    assert reads(source, "x.py", {"mod", "m"}) == {"m", "f", "g", "k", "span", "count"}
    source = "def f():\n    pass\nclass C:\n    def g(self):\n        pass\nv = 1\n"
    assert definitions(source, "x.py") == {"f", "C"}


def test_every_definition_is_read_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    readers = sources + sorted(p for p in BENCHMARK.glob("*.py")
                               if not p.name.startswith("test_"))
    assert sources and len(readers) > len(sources)
    modules = {p.stem for p in sources}
    read = set().union(*(reads(p.read_text(encoding="utf-8"), p.name, modules)
                         for p in readers))
    unread = {(p.stem, d) for p in sources if p.name != "__init__.py"
              for d in definitions(p.read_text(encoding="utf-8"), p.name) if d not in read}
    assert {d for _, d in unread} - KEEP.keys() == set(), sorted(unread)
    # an allowance outlives its reason once the definition is read or gone
    assert KEEP.keys() <= {d for _, d in unread}
