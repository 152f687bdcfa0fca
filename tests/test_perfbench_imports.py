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


# Digests of each workload's semantic output at --seed 1; they do not depend
# on --seconds.  A change that moves an output fails here, not only in the
# benchmark.
DIGESTS = {
    "blind-rounds": "26560cb605506c9093d696050b8fa6e0a875dd5d8fca1208c22d2ac9a5d1dc7b",
    "stream-route": "f1132238ddfc64d27890afd739d9d6be2eb96bc0ed3e5b9abb54a4e04aaef72b",
    "cli-pipeline": "528950b20721dca7cba6cdee757b169dbff336bc47a35c31efbdf6d10c902498",
}


# Only a traced run reaches the names the traced replay and the routing
# classes call (BasePartition, as_final, support_of), so two workloads also
# run with --trace 1.
@pytest.mark.parametrize(
    "workload,trace",
    [pytest.param(w, 0, id=w) for w in DIGESTS]
    + [pytest.param(w, 1, id=f"{w}-trace") for w in ("cli-pipeline", "stream-route")],
)
def test_benchmark_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.strip().splitlines()
    assert json.loads(context)["digest"] == DIGESTS[workload]
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
