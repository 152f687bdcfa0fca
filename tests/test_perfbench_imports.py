"""The benchmark under perfbench/ calls into ic_alloc.  Importing its
modules here makes a removed or renamed name fail the test suite, and a
one-second run of each workload catches a changed call signature or a
broken output check, not only a benchmark run."""

import importlib
import json
import subprocess
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


@pytest.mark.parametrize("workload", ["blind-rounds", "stream-route", "cli-pipeline"])
def test_benchmark_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
