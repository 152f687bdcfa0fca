"""What the package imports.  The runtime is stdlib-only (pyproject.toml
declares `dependencies = []`): every absolute import in the package names a
standard-library module or the package itself.  Each CLI step loads only
the modules it runs, and the package's public names resolve on first use to
the objects their modules define."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_module_of_the_package_imports_dataclasses():
    # the value classes derive from records.Record; dataclasses would bring
    # inspect, ast, dis and tokenize back into every CLI child's start-up
    found = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for name in _absolute_imports(path)
        if name.partition(".")[0] == "dataclasses"
    )
    assert found == []


# each pipeline step on a tiny instance, and the modules it must not load
STEPS = {
    "partition": ("ic_alloc.harness", "ic_alloc.metrics", "ic_alloc.verify"),
    "thin": ("ic_alloc.harness", "ic_alloc.metrics", "ic_alloc.verify"),
    "eval": ("ic_alloc.harness", "ic_alloc.baselines"),
    "verify": ("ic_alloc.harness", "ic_alloc.baselines"),
}


def _loaded(env, *argv):
    """The modules `python -X importtime argv` imports, which it lists on stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_steps_load_only_the_modules_they_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    part, tasks = str(tmp_path / "p.json"), str(tmp_path / "x.txt")
    argv = {
        "partition": ["partition", "--n", "12", "--d", "2", "--workers", "4", "--out", part],
        "thin": ["thin", "--n", "12", "--d", "2", "--phi", "0.5", "--seed", "1", "--out", tasks],
        "eval": ["eval", "--partition", part, "--tasks", tasks],
        "verify": ["verify", "--partition", part],
    }
    bare = _loaded(env, "-c", "pass")  # what the interpreter's own start-up loads
    for step, barred in STEPS.items():
        loaded = _loaded(env, "-m", "ic_alloc.cli", *argv[step]) - bare
        assert "ic_alloc.formats" in loaded  # the listing is read
        assert loaded.isdisjoint({"dataclasses", "inspect", *barred}), (step, sorted(loaded))


PUBLIC = [
    "CostReport", "ICParameters", "Partition", "TaskSet", "ThinningSpec", "arf_of",
    "assign_base_group", "assign_tasks", "binomial", "block_bounds", "brute_force_pi_star",
    "build_base_partition", "build_families", "card_C_beta", "card_R_beta_I", "delta_of",
    "derive_parameters", "enumerate_lex", "full_report", "lex_partition", "lex_rank",
    "lex_unrank", "m_beta", "monte_carlo_delta", "partition_from_groups", "phi_min",
    "pi_lower_bound", "pi_of", "random_partition", "refine", "simulate_rounds", "sweep",
    "t_beta", "thin",
]


def test_public_surface():
    import ic_alloc

    assert ic_alloc.__all__ == PUBLIC
    assert ic_alloc.__version__ == "0.1.0"
    for name in PUBLIC:
        value = getattr(ic_alloc, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert value.__module__ != "ic_alloc", name  # defined in a submodule
    scope = {}
    exec("from ic_alloc import *", scope)
    assert sorted(scope.keys() - {"__builtins__"}) == PUBLIC
    with pytest.raises(AttributeError, match="no_such_name"):
        ic_alloc.no_such_name
