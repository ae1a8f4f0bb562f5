"""Every name a module of the package imports at module level is read in
that module, apart from the bindings the benchmark's tracer test reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shukla"

# perfbench/test_perfbench.py asserts that these bindings are wrapped by
# its tracer; the module itself calls neither.  A benchmark change that
# reads linalg's bindings instead drops both imports and this entry.
PERFBENCH_READS = {("mixed", "homology_at"), ("mixed", "subquotient")}


def unread_imports(source, name):
    """The names that source imports at module level and never reads."""
    tree = ast.parse(source, filename=name)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_scan_catches_an_unread_import():
    source = ("import os\nimport os.path as osp\nfrom math import gcd, lcm\n"
              "def f():\n    import sys\n    return gcd(1, 2) + osp.sep\n")
    assert unread_imports(source, "x.py") == {"os", "lcm"}


def test_package_imports_no_unread_name():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert paths
    unread = {(path.stem, bound) for path in paths
              for bound in unread_imports(path.read_text(encoding="utf-8"), path.name)}
    assert unread - PERFBENCH_READS == set()
    # an allowance outlives its reason once the binding is read or gone
    assert PERFBENCH_READS <= unread
