"""The benchmark under perfbench/ imports names from ic_alloc.  Importing
its modules here makes a removed or renamed name fail the test suite, not
only a benchmark run.  Nothing is run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ["run", "blind_rounds", "stream_route", "cli_pipeline"])
def test_benchmark_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        importlib.import_module(module)
    finally:
        # perfbench's modules have generic top-level names (run, common, ...)
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if Path(path).parent == PERFBENCH:
                del sys.modules[name]
