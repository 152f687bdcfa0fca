"""The runtime is stdlib-only (pyproject.toml declares `dependencies = []`):
every absolute import in the package names a standard-library module or the
package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ic_alloc"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    found = {
        (path.name, name.partition(".")[0])
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _absolute_imports(path)
    }
    assert ("design.py", "bisect") in found  # the walk sees the package's imports
    outside = sorted(
        (module, top) for module, top in found
        if top not in sys.stdlib_module_names and top != "ic_alloc"
    )
    assert outside == []
