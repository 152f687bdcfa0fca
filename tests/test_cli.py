import ast
import gc
import hashlib
import inspect
import json
import os
import subprocess
import sys
from itertools import combinations
from operator import lt
from pathlib import Path

import pytest

from ic_alloc import cli, design, harness, metrics, verify
from ic_alloc.baselines import ThinningSpec, lex_partition, thin
from ic_alloc.cli import main
from ic_alloc.design import (
    Partition,
    _prime_partition,
    build_base_partition,
    derive_parameters,
    refine,
)
from ic_alloc.errors import ICAllocError, UnsupportedParameters
from ic_alloc.formats import emit_partition, emit_tasks, parse_partition, parse_tasks
from ic_alloc.harness import SweepRecord
from ic_alloc.tasks import TaskSet

EXAMPLE1_TEXT = "7 2 6\n1 2\n1 3\n2 3\n4 5\n3 6\n2 7\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_eval_verify_pipeline(tmp_path, capsys):
    part = tmp_path / "p.json"
    code, out, err = run(
        capsys, "partition", "--n", "6", "--d", "2", "--workers", "3",
        "--out", str(part),
    )
    assert code == 0
    assert json.loads(out)["out"] == str(part)
    fp = parse_partition(part.read_text())
    assert fp.N == 3

    code, out, _ = run(capsys, "eval", "--partition", str(part))
    assert code == 0
    report = json.loads(out)
    assert report["pi"] == 4 and report["bounds_ok"] is True

    code, out, _ = run(capsys, "verify", "--partition", str(part))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_partition_to_stdout(capsys):
    code, out, _ = run(capsys, "partition", "--n", "6", "--d", "2", "--workers", "3")
    assert code == 0
    fp = parse_partition(out)
    assert fp.groups[0] == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_partition_at_d_equal_n(capsys):
    # one 50-tuple; the build visits no support class too small to hold it
    code, out, _ = run(capsys, "partition", "--n", "50", "--d", "50", "--workers", "1")
    assert code == 0
    assert parse_partition(out).groups == ((tuple(range(1, 51)),),)


def test_partition_with_tasks(tmp_path, capsys):
    tasks = tmp_path / "x.txt"
    tasks.write_text(EXAMPLE1_TEXT)
    code, out, _ = run(
        capsys, "partition", "--n", "7", "--d", "2", "--workers", "3",
        "--tasks", str(tasks),
    )
    assert code == 0
    fp = parse_partition(out)
    assert sum(len(g) for g in fp.groups) == 6


def test_placement_is_equal_across_two_independent_builds(tmp_path, capsys):
    # two builds, the second with X, each from a cleared construction cache
    # and read back from its file; at phi=0.02 no group's tuples touch all of
    # its files, so a placement taken from X would differ from the blind one
    tasks = tmp_path / "x.txt"
    blind, with_x = tmp_path / "blind.json", tmp_path / "with_x.json"
    argv = ["partition", "--n", "60", "--d", "2", "--workers", "6"]
    assert run(capsys, "thin", "--n", "60", "--d", "2", "--phi", "0.02", "--seed", "7",
               "--out", str(tasks))[0] == 0
    _prime_partition.cache_clear()
    assert run(capsys, *argv, "--out", str(blind))[0] == 0
    _prime_partition.cache_clear()
    assert run(capsys, *argv, "--tasks", str(tasks), "--out", str(with_x))[0] == 0
    first, second = parse_partition(blind.read_text()), parse_partition(with_x.read_text())
    assert 0 < sum(map(len, second.groups)) < sum(map(len, first.groups))
    assert second.placement == first.placement


def test_verify_rejects_tampered_partition(tmp_path, capsys):
    part = tmp_path / "p.json"
    code, _, _ = run(
        capsys, "partition", "--n", "6", "--d", "2", "--workers", "3",
        "--out", str(part),
    )
    assert code == 0
    doc = json.loads(part.read_text())
    doc["groups"][0].append(doc["groups"][1][0])  # duplicate an edge across groups
    part.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--partition", str(part))
    assert code == 1
    assert out == "" and err.startswith("error: bad groups: edge ")  # refused at parse


def test_verify_rejects_group_outside_its_placement(tmp_path, capsys):
    part = tmp_path / "p.json"
    code, _, _ = run(
        capsys, "partition", "--n", "6", "--d", "2", "--workers", "3",
        "--out", str(part),
    )
    assert code == 0
    doc = json.loads(part.read_text())
    doc["footprints"][1].pop(0)  # group 2 still touches the dropped file
    part.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--partition", str(part))
    assert code == 1
    checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
    assert checks["assignments_feasible"] is False
    assert "FAIL assignments_feasible" in err


def _child_stderr(*argv):
    # in a child process, where the default warning filter prints to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c", "from ic_alloc.cli import main; raise SystemExit(main())", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a warning is one line that names no source location
    assert ".py:" not in proc.stderr, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("n, warnings_expected", [(40, 1), (64, 0)])
def test_partition_warns_about_the_regime_once(n, warnings_expected, tmp_path):
    stderr = _child_stderr("partition", "--n", str(n), "--d", "2", "--workers", "6",
                           "--out", str(tmp_path / "p.json"))
    assert stderr.count("ParameterRegimeWarning") == warnings_expected, stderr
    assert stderr.count("\n") == 1 + warnings_expected, stderr


@pytest.mark.parametrize("n, warnings_expected", [(40, 1), (64, 0)])
def test_eval_warns_about_the_regime_once(n, warnings_expected, tmp_path):
    part = tmp_path / "p.json"
    part.write_text(emit_partition(build_base_partition(derive_parameters(n, 2, 6))))
    stderr = _child_stderr("eval", "--partition", str(part))
    assert stderr.count("ParameterRegimeWarning: ") == warnings_expected, stderr
    assert stderr.count("\n") == warnings_expected, stderr


def test_structured_task_set_is_outside_the_random_balance_bound(tmp_path, capsys):
    # every 3-subset of files 1..64 at n=96: density 0.292 is over phi_min =
    # 0.176, but X is not a random thinning, and its delta_X = 5.14 is over
    # the bound that is promised for random X only; pi <= s*d still holds
    tasks, part = tmp_path / "x.txt", tmp_path / "p.json"
    tasks.write_text(emit_tasks(TaskSet.from_edges(96, 3, combinations(range(1, 65), 3))))
    code, _, _ = run(capsys, "partition", "--n", "96", "--d", "3", "--workers", "30",
                     "--tasks", str(tasks), "--out", str(part))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--partition", str(part))
    report = json.loads(out)
    bounds = {b["name"]: b for b in report["bounds"]}
    assert code == 0 and report["bounds_ok"] is True
    assert round(report["delta"], 2) == 5.14
    assert bounds["delta_x_le_5"]["applicable"] is False
    assert bounds["delta_x_le_5"]["detail"] == "X is not a random thinning"
    assert bounds["pi_le_sd"]["applicable"] and bounds["pi_le_sd"]["satisfied"]
    code, out, _ = run(capsys, "verify", "--partition", str(part))
    assert code == 0 and json.loads(out)["ok"] is True


def test_thin_round_trip(tmp_path, capsys):
    out_file = tmp_path / "x.txt"
    code, out, err = run(
        capsys, "thin", "--n", "10", "--d", "2", "--phi", "0.5", "--seed", "7",
        "--out", str(out_file),
    )
    assert code == 0
    tasks = parse_tasks(out_file.read_text())
    assert tasks.phi == 0.5 and tasks.seed == 7

    code, out, _ = run(capsys, "thin", "--n", "10", "--d", "2", "--phi", "1.0", "--seed", "7")
    assert code == 0
    assert parse_tasks(out).edges == TaskSet.full(10, 2).edges


def test_bruteforce(tmp_path, capsys):
    tasks = tmp_path / "x.txt"
    tasks.write_text(EXAMPLE1_TEXT)
    code, out, _ = run(capsys, "bruteforce", "--tasks", str(tasks), "--workers", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pi_star"] == 4
    assert sum(len(g) for g in doc["witness"]) == 6


def test_bruteforce_cap_error(tmp_path, capsys):
    tasks = tmp_path / "x.txt"
    tasks.write_text(EXAMPLE1_TEXT)
    code, _, err = run(
        capsys, "bruteforce", "--tasks", str(tasks), "--workers", "2",
        "--edge-cap", "3",
    )
    assert code == 1
    assert "error" in err


def test_montecarlo(capsys):
    code, out, _ = run(
        capsys, "montecarlo", "--n", "30", "--d", "2", "--workers", "5",
        "--phi", "0.5", "--trials", "10", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 10
    assert 0.0 <= doc["fraction_delta_le_5"] <= 1.0


def test_sweep(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": [6, 7], "d": [2], "N": [3], "phi": [1.0]}))
    out_csv = tmp_path / "out.csv"
    code, out, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("n,d,N,phi,seed")
    assert len(lines) == 3


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_montecarlo_prints_valid_json_when_phi_min_is_undefined(capsys):
    # C(6, 2) = 15 does not exceed 2^4 * 3, so the threshold is undefined
    code, out, _ = run(
        capsys, "montecarlo", "--n", "6", "--d", "2", "--workers", "3", "--phi", "0.5",
        "--trials", "2", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["phi_min"] is None and doc["vacuous"] is True


def test_simulate(capsys):
    code, out, _ = run(
        capsys, "simulate", "--n", "20", "--d", "2", "--workers", "3",
        "--rounds", "3", "--phi-list", "0.3,0.6,1.0", "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert len(doc["rounds"]) == 3


# sha256 goldens of the simulate stdout, a sweep CSV and the --help text,
# taken before CostReport, SimulationResult and emit_sweep_csv rendered from
# their records' fields and before the CLI shared its --n/--d/--workers
# declarations; each must stay byte-identical.


def test_simulate_stdout_golden(capsys):
    code, out, _ = run(
        capsys, "simulate", "--n", "20", "--d", "2", "--workers", "3",
        "--rounds", "3", "--phi-list", "0.3,0.6,1.0", "--seed", "5",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "afcd5e02ca6c7e21fcba5575fd4367749ad39abdf0f6175a2532eefeb1414b5d"
    )


def test_sweep_csv_golden(tmp_path, capsys):
    # phi < 1 and phi = 1 rows in both cases, and two unsupported points (N=6 at n=6)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"n": [30, 6], "d": [2], "N": [5, 6], "phi": [0.5, 1.0], "seed": [3]}))
    out_csv = tmp_path / "out.csv"
    assert run(capsys, "sweep", "--grid", str(grid), "--out", str(out_csv))[0] == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "e0ade7b429f4ea1f42189bba5213ff1a6657ab35e45833eaa8742acb1e0f943f"
    )


HELP_GOLDENS = {
    "partition": "717c3ad800f403fdb6d797e827a1df279880485ae3b51caced0bfa0dece46f77",
    "thin": "a72467ebaf60db184599e1177160582b1271eaa2ce160a648a20a12a6cdfec14",
    "montecarlo": "f0b3e07d4d96d52dacf21e7fb8c22e7b9083f90af1f1ace2d284d9ba8e9becc9",
    "simulate": "411f521b36e85dde0333bcd5c9ccb3ba4fa18ceec79c2681c5e627f55ac3b542",
}


@pytest.mark.parametrize("command", list(HELP_GOLDENS))
def test_help_text_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_GOLDENS[command], out


def test_unsupported_parameters_exit_code(capsys):
    code, _, err = run(capsys, "partition", "--n", "6", "--d", "2", "--workers", "6")
    assert code == 1
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--partition", "/nonexistent/x.json")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--n", "6"])
    assert exc.value.code == 2


def test_instance_past_the_materialization_cap_names_the_streaming_calls(capsys):
    code, _, err = run(capsys, "partition", "--n", "600", "--d", "3", "--workers", "200")
    assert code == 1
    assert err.startswith("error: C(600,3) = 35820200 tuples") and err.count("\n") == 1, err
    assert err.rstrip().endswith(
        "the CLI materializes, and only the library calls assign_base_group "
        "and assign_tasks stream"
    ), err


def test_montecarlo_refuses_phi_before_the_build(capsys):
    # past the materialization cap, so a build would fail first and name the cap
    code, _, err = run(
        capsys, "montecarlo", "--n", "600", "--d", "3", "--workers", "200", "--phi", "1.5",
        "--trials", "1", "--seed", "1",
    )
    assert code == 1
    assert err == "error: phi must lie in [0, 1], got 1.5\n", err


def test_sweep_bound_violation_exits_1_after_writing_the_csv(tmp_path, capsys, monkeypatch):
    record = SweepRecord(n=6, d=2, N=3, phi=1.0, seed=0, case="divisible", bounds_ok=False)
    monkeypatch.setattr(harness, "sweep", lambda points: [record])
    argv = _sweep_argv(tmp_path, '{"n": [6], "d": [2], "N": [3]}')
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "BOUND VIOLATION at n=6 d=2 N=3 phi=1.0" in err and "error:" not in err
    assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith("6,2,3,1.0,0,divisible,")


# main runs each handler with the cyclic collector off; it must give the
# caller's collector state back on every way out: (argv, handler, exit)
COLLECTOR_EXITS = {
    "exit-0": (["thin", "--n", "6", "--d", "2", "--phi", "0.5", "--seed", "1"], "cmd_thin", 0),
    "ic-alloc-error": (
        ["partition", "--n", "6", "--d", "2", "--workers", "6"], "cmd_partition", 1),
    "os-error": (["eval", "--partition", "/nonexistent/x.json"], "cmd_eval", 1),
    "help": (["partition", "--help"], None, None),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", list(COLLECTOR_EXITS))
def test_main_restores_the_collector_state(case, enabled, monkeypatch, capsys):
    argv, handler, expected = COLLECTOR_EXITS[case]
    seen = []
    if handler is not None:
        original = getattr(cli, handler)

        def recording(args):
            seen.append(gc.isenabled())
            return original(args)

        monkeypatch.setattr(cli, handler, recording)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if expected is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == expected
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert after is enabled
    assert seen == ([] if handler is None else [False])


def _grid_file(tmp, points):
    grid = tmp / f"grid{points}.json"
    grid.write_text(json.dumps(
        {"n": [20], "d": [2], "N": [3], "phi": [0.5], "seed": list(range(points))}))
    return str(grid)


# a small run and one with 5x the trials, rounds or grid points
GROWING_RUNS = {
    "montecarlo": lambda tmp, k: [
        "montecarlo", "--n", "30", "--d", "2", "--workers", "5", "--phi", "0.5",
        "--trials", str(k), "--seed", "3"],
    "simulate": lambda tmp, k: [
        "simulate", "--n", "20", "--d", "2", "--workers", "3", "--rounds", str(k),
        "--phi-list", "0.3,0.6,1.0", "--seed", "5"],
    "sweep": lambda tmp, k: [
        "sweep", "--grid", _grid_file(tmp, k), "--out", str(tmp / "out.csv")],
}


def _cyclic_garbage_after(argv, capsys):
    """Objects that only the cyclic collector could free after one main call."""
    before = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        capsys.readouterr()
        if before:
            gc.enable()


@pytest.mark.parametrize("command", list(GROWING_RUNS))
def test_handlers_leave_no_cycles_that_grow_with_their_work(command, tmp_path, capsys):
    # what licenses running handlers without the collector: the garbage they
    # leave in cycles (argparse's parser) does not grow with their work
    small, large = (GROWING_RUNS[command](tmp_path, k) for k in (2, 10))
    _cyclic_garbage_after(small, capsys)  # imports and caches first
    assert _cyclic_garbage_after(small, capsys) == _cyclic_garbage_after(large, capsys)


def test_eval_tasks_and_verify_stdout_golden(tmp_path, capsys):
    # sha256 of the stdout, taken before any change to the partition type,
    # full_report or verify; both must stay byte-identical
    part, tasks = tmp_path / "p.json", tmp_path / "x.txt"
    part.write_text(emit_partition(build_base_partition(derive_parameters(13, 2, 8))))
    tasks.write_text(emit_tasks(thin(13, 2, ThinningSpec(0.5, 11))))

    code, out, _ = run(capsys, "eval", "--partition", str(part), "--tasks", str(tasks))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d3a119c3f189a5918c6ef37bc5a2f6d175430e1d93086b55ab2ef0f554557c3"
    )
    code, out, _ = run(capsys, "verify", "--partition", str(part))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9455e94c2f43a7a057b207b7809dda2594eee940ff68cb16c115866c0dbcd521"
    )


def _partition_doc(n, d, N):
    return json.loads(emit_partition(build_base_partition(derive_parameters(n, d, N))))


def _move(doc, src, dst, edge):
    doc["groups"][src].remove(edge)
    doc["groups"][dst].append(edge)


def _swap(doc, a, b, ta, tb):
    _move(doc, a, b, ta)
    _move(doc, b, a, tb)


# Each edit of the complete n=12, d=2, N=3 partition (families {1-4},
# {5-8}, {9-12}) must fail the named check; other checks may fail too.
TAMPERS = {
    "params_rederivable": (
        "params_rederivable", lambda doc: doc["params"].__setitem__("q", 2)),
    # (5, 9) lifts the first group's footprint to 9 files, past s*d = 8
    "promised_bounds": ("promised_bounds", lambda doc: _move(doc, 2, 0, [5, 9])),
    # the groups still equal the construction's, and group 2 touches file 1
    "assignments_feasible": (
        "assignments_feasible", lambda doc: doc["footprints"][1].remove(1)),
    # both edges lie inside family 1, which both placements hold
    "matches_construction": (
        "matches_construction", lambda doc: _swap(doc, 0, 1, [1, 2], [2, 3])),
    "footprints_match_construction": (
        "footprints_match_construction", lambda doc: doc["footprints"][0].append(9)),
}


@pytest.mark.parametrize("case", list(TAMPERS))
def test_verify_check_fails_on_tampered_partition(case, tmp_path, capsys):
    check, tamper = TAMPERS[case]
    doc = _partition_doc(12, 2, 3)
    tamper(doc)
    part = tmp_path / "p.json"
    part.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--partition", str(part))
    assert code == 1
    assert {c["name"]: c["ok"] for c in json.loads(out)["checks"]}[check] is False
    assert f"FAIL {check}:" in err


def _drop_and_duplicate(doc):
    # group 1 loses a tuple and group 2 lists one of its own twice: the
    # tuple count still equals the 66 tasks of the complete file
    doc["groups"][0].pop()
    doc["groups"][1].append(doc["groups"][1][0])


# Each edit ends at parse, so eval, eval --tasks and verify all refuse the file
PARSE_TAMPERS = {
    # each of the first three rows is named after the verify check its edit
    # would fail if the file parsed
    "edges_well_formed-descending": (
        lambda: _partition_doc(12, 2, 3), lambda doc: doc["groups"][0].__setitem__(0, [2, 1])),
    "edges_well_formed-zero": (
        lambda: _partition_doc(12, 2, 3), lambda doc: doc["groups"][0].__setitem__(0, [0, 1])),
    "edge_count_within_universe": (
        lambda: _partition_doc(12, 2, 3), lambda doc: doc["groups"][0].append([1, 2])),
    "complete-descending-first-edge": (
        lambda: _partition_doc(12, 2, 4), lambda doc: doc["groups"][0].__setitem__(0, [2, 1])),
    "complete-three-element-first-edge": (
        lambda: _partition_doc(12, 2, 4), lambda doc: doc["groups"][0].__setitem__(0, [1, 2, 3])),
    "complete-dropped-and-duplicated": (lambda: _partition_doc(12, 2, 4), _drop_and_duplicate),
    "baseline-footprint-out-of-range": (
        lambda: json.loads(emit_partition(lex_partition(TaskSet.full(8, 2), 3))),
        lambda doc: doc["footprints"][0].extend([1000, 0])),
}


@pytest.mark.parametrize("case", list(PARSE_TAMPERS))
def test_malformed_file_ends_at_parse(case, tmp_path, capsys):
    make, tamper = PARSE_TAMPERS[case]
    doc = make()
    tamper(doc)
    part, tasks = tmp_path / "p.json", tmp_path / "x.txt"
    part.write_text(json.dumps(doc))
    tasks.write_text(emit_tasks(TaskSet.full(doc["n"], doc["d"])))
    for argv in (["eval"], ["eval", "--tasks", str(tasks)], ["verify"]):
        code, out, err = run(capsys, *argv, "--partition", str(part))
        assert code == 1 and out == "", argv
        assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err


CHECK_NAMES = [
    "edges_well_formed", "groups_disjoint", "edge_count_within_universe",
    "assignments_feasible", "params_rederivable", "promised_bounds",
    "matches_construction", "footprints_match_construction",
]


def test_verify_validates_no_tuple_itself(monkeypatch):
    # the groups were checked at parse; verify reads them as given
    untouched = parse_partition(json.dumps(_partition_doc(12, 2, 3)))
    doc = _partition_doc(12, 2, 3)
    _swap(doc, 0, 1, [1, 2], [2, 3])
    swapped = parse_partition(json.dumps(doc))

    calls, scans = [], []
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("ic_alloc"):
            for name in ("validate_dtuple", "validate_dtuples"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    within = verify._within_placement
    monkeypatch.setattr(verify, "_within_placement", lambda p: scans.append(p) or within(p))

    checks = verify.run_invariant_checks(untouched)
    assert [c.name for c in checks] == CHECK_NAMES and all(c.ok for c in checks)
    assert scans == []
    checks = {c.name: c for c in verify.run_invariant_checks(swapped)}
    assert len(scans) == 1
    assert checks["edges_well_formed"].ok and checks["edges_well_formed"].detail == (
        "0 malformed edges")
    assert not checks["matches_construction"].ok
    assert calls == []


def test_verify_computes_each_footprint_once(monkeypatch):
    # the groups of a complete file equal the construction's, which lie inside
    # its placement, so the report's scans stop at each entry and return it; a
    # refined file's groups are scanned in full
    complete = parse_partition(json.dumps(_partition_doc(12, 2, 3)))
    base = build_base_partition(derive_parameters(12, 2, 3))
    refined = parse_partition(emit_partition(refine(base, thin(12, 2, ThinningSpec(0.5, 1)))))
    calls = []
    footprint = design.footprint

    def spy(g, *held):
        calls.append((held, footprint(g, *held)))
        return calls[-1][1]

    monkeypatch.setattr(design, "footprint", spy)
    expected = metrics.full_report(complete, complete.params)
    calls.clear()
    checks = verify.run_invariant_checks(complete)
    assert all(c.ok for c in checks) and len(calls) == 6  # 3 in the build, 3 in the report
    assert all(len(held) == 1 and out is held[0] for held, out in calls[3:])
    assert metrics.full_report(base, complete.params) == expected
    calls.clear()
    assert all(c.ok for c in verify.run_invariant_checks(refined)) and len(calls) == 6


@pytest.mark.parametrize("module", [verify, metrics, cli])
def test_readers_of_a_parsed_partition_validate_no_tuple(module):
    # tuples are validated where they enter the program, not again by the
    # modules that read a parsed partition
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
             for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Call)}
    assert not calls & {"validate_dtuple", "validate_dtuples"}


def _refined_doc(n, d, N, phi, seed):
    base = build_base_partition(derive_parameters(n, d, N))
    return json.loads(emit_partition(refine(base, thin(n, d, ThinningSpec(phi, seed)))))


def _verify_doc(doc, tmp_path, capsys):
    part = tmp_path / "p.json"
    part.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--partition", str(part))
    return code, {c["name"]: c["ok"] for c in json.loads(out)["checks"]}


def test_verify_compares_a_refined_file_with_the_construction(tmp_path, capsys):
    doc = _refined_doc(60, 2, 6, 0.5, 7)
    code, checks = _verify_doc(doc, tmp_path, capsys)
    assert code == 0
    assert list(checks) == CHECK_NAMES and all(checks.values())

    # at phi = 0.02 group 1 leaves files of its placement untouched; a
    # placement entry without one still holds the group, but is not blind
    doc = _refined_doc(60, 2, 6, 0.02, 7)
    held, touched = doc["footprints"][0], {x for t in doc["groups"][0] for x in t}
    held.remove(min(set(held) - touched))
    code, checks = _verify_doc(doc, tmp_path, capsys)
    assert code == 1
    assert [name for name, ok in checks.items() if not ok] == ["footprints_match_construction"]


def test_verify_says_what_a_refined_file_matches(tmp_path, capsys):
    # a complete file equals the construction; a refined one lies inside it
    for doc, detail in [
        (_partition_doc(60, 2, 6), "group contents equal the canonical construction"),
        (_refined_doc(60, 2, 6, 0.5, 7), "each group lies inside the construction's group"),
    ]:
        part = tmp_path / "p.json"
        part.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--partition", str(part))
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 0 and checks["matches_construction"] == {
            "name": "matches_construction", "ok": True, "detail": detail}


def _move_within_family_1(doc):
    # files 1-15 are family 1, which the placements of groups 1 and 2 both hold
    _move(doc, 0, 1, next(t for t in doc["groups"][0] if t[1] <= 15))


def _own_footprints(doc):
    doc["footprints"] = [sorted({x for t in g for x in t}) for g in doc["groups"]]


# edits of refined (60, 2, 6) files that keep every structural check; each
# must fail the named check
REFINED_TAMPERS = {
    "moved-tuple": (0.5, _move_within_family_1, "matches_construction"),
    "placement-from-x": (0.02, _own_footprints, "footprints_match_construction"),
}


@pytest.mark.parametrize("case", list(REFINED_TAMPERS))
def test_verify_rejects_a_tampered_refined_file(case, tmp_path, capsys):
    phi, tamper, check = REFINED_TAMPERS[case]
    doc = _refined_doc(60, 2, 6, phi, 7)
    tamper(doc)
    code, checks = _verify_doc(doc, tmp_path, capsys)
    assert code == 1
    assert [name for name, ok in checks.items() if not ok] == [check]


def _put(seq, i, item):
    return seq[:i] + (item,) + seq[i + 1:]


def _single_edits(p):
    """Every (groups, placement) one edit away from p: each tuple moved to
    each other group, replaced by each other d-subset of its group's
    placement, duplicated into the next group or reversed, and each file
    toggled in each placement entry."""
    G, P = p.groups, p.placement
    for b, g in enumerate(G):
        for i, t in enumerate(g):
            rest = g[:i] + g[i + 1:]
            for c in range(p.N):
                if c != b:
                    yield _put(_put(G, b, rest), c, G[c] + (t,)), P
            for u in combinations(P[b], p.d):
                if u != t:
                    yield _put(G, b, _put(g, i, u)), P
            c = (b + 1) % p.N
            yield _put(G, c, G[c] + (t,)), P
            yield _put(G, b, _put(g, i, t[::-1])), P
    for b, held in enumerate(P):
        for x in range(1, p.n + 1):
            toggled = tuple(y for y in held if y != x) if x in held else tuple(sorted(held + (x,)))
            yield G, _put(P, b, toggled)


def _is_correct(p, groups, placement):
    """The oracle: a construction file must be the construction refined by
    the union of its groups, with the construction's placement; a baseline
    file must hold distinct well-formed tuples, each group inside its
    placement entry."""
    union = [t for g in groups for t in g]
    if len(set(union)) != len(union):
        return False
    if p.params is None:
        return all(len(t) == p.d and 1 <= t[0] and t[-1] <= p.n and all(map(lt, t, t[1:]))
                   for t in union) and all(
            set(held).issuperset(x for t in g for x in t) for g, held in zip(groups, placement))
    base = build_base_partition(p.params)
    wanted = set(union)
    return placement == base.placement and all(
        sorted(g) == [t for t in whole if t in wanted] for g, whole in zip(groups, base.groups))


def _verify_exit(text):
    # cmd_verify's verdict, in-process
    try:
        checks = verify.run_invariant_checks(parse_partition(text))
    except ICAllocError:
        return 1
    return 0 if all(c.ok for c in checks) else 1


def test_verify_accepts_exactly_the_correct_single_edits():
    b12 = build_base_partition(derive_parameters(12, 2, 4))
    b13 = build_base_partition(derive_parameters(13, 2, 5))
    files = [
        b12,
        refine(b12, thin(12, 2, ThinningSpec(0.5, 7))),
        refine(b13, thin(13, 2, ThinningSpec(0.6, 7))),
        lex_partition(TaskSet.full(12, 2), 4),
    ]
    counts = []
    for p in files:
        edits = accepted = 0
        for groups, placement in _single_edits(p):
            mutant = Partition(p.n, p.d, groups, placement, p.params, p.metadata)
            correct = _is_correct(p, groups, placement)
            assert _verify_exit(emit_partition(mutant)) == (0 if correct else 1), (
                groups, placement)
            edits, accepted = edits + 1, accepted + correct
        counts.append((edits, accepted))
    assert counts == [(2017, 0), (1141, 295), (2162, 308), (3281, 121)]


def _baseline_partition(tmp, n):
    # a lex split of the complete set: params null, own footprints as placement
    path = tmp / "baseline.json"
    path.write_text(emit_partition(lex_partition(TaskSet.full(n, 2), 3)))
    return str(path)


def test_verify_baseline_file_runs_the_structural_checks_only(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--partition", _baseline_partition(tmp_path, 7))
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES[:4] and all(c["ok"] for c in checks)


def test_verify_params_that_no_derivation_gives(tmp_path, capsys):
    # (n, d, N) = (5, 2, 3) gives k = 3 and s0 = 2 > floor(5 / 3)
    with pytest.raises(UnsupportedParameters) as derivation:
        derive_parameters(5, 2, 3)
    doc = json.loads(Path(_baseline_partition(tmp_path, 5)).read_text())
    doc["params"] = dict(_partition_doc(6, 2, 3)["params"], n=5)
    doc["case"] = doc["params"]["case"]  # the top-level case must agree with params
    part = tmp_path / "underivable.json"
    part.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--partition", str(part))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES[:5]
    assert all(c["ok"] for c in checks[:4])
    assert checks[4] == {
        "name": "params_rederivable", "ok": False, "detail": str(derivation.value)}
    assert f"FAIL params_rederivable: {derivation.value}" in err


def _partition_with_first_edge(tmp_path, edge):
    doc = _partition_doc(6, 2, 3)
    doc["groups"][0][0] = edge
    path = tmp_path / "bad_partition.json"
    path.write_text(json.dumps(doc))
    return path


def _partition_with_params(tmp_path, **edits):
    doc = _partition_doc(6, 2, 3)
    doc["params"].update(edits)
    path = tmp_path / "bad_params.json"
    path.write_text(json.dumps(doc))
    return path


def _partition_with_keys(tmp_path, **edits):
    doc = _partition_doc(6, 2, 3)
    doc.update(edits)
    path = tmp_path / "bad_keys.json"
    path.write_text(json.dumps(doc))
    return path


def _partition_without_param(tmp_path, key):
    doc = _partition_doc(6, 2, 3)
    del doc["params"][key]
    path = tmp_path / "missing_param.json"
    path.write_text(json.dumps(doc))
    return path


def _baseline_with_keys(tmp, **edits):
    # a params-null file, which reaches the metrics without a derivation
    path = Path(_baseline_partition(tmp, 7))
    path.write_text(json.dumps({**json.loads(path.read_text()), **edits}))
    return str(path)


def _tasks_file(tmp, text):
    path = tmp / "tasks.txt"
    path.write_text(text)
    return str(path)


def _tasks_with_comment(tmp, comment):
    return _tasks_file(tmp, f"# {comment}\n" + EXAMPLE1_TEXT)


def _eval_tasks_argv(tmp, comment):
    part = tmp / "p.json"
    part.write_text(emit_partition(build_base_partition(derive_parameters(7, 2, 3))))
    return ["eval", "--partition", str(part), "--tasks", _tasks_with_comment(tmp, comment)]


def _eval_tasks_outside_the_partition(tmp):
    # X is all 66 tuples, and one of them was deleted from group 1
    doc = _partition_doc(12, 2, 4)
    doc["groups"][0].pop()
    part = tmp / "p.json"
    part.write_text(json.dumps(doc))
    return ["eval", "--partition", str(part),
            "--tasks", _tasks_file(tmp, emit_tasks(TaskSet.full(12, 2)))]


def _sweep_argv(tmp, grid_text):
    grid = tmp / "grid.json"
    grid.write_text(grid_text)
    return ["sweep", "--grid", str(grid), "--out", str(tmp / "out.csv")]


# each must end in one "error:" line and exit 1, never a traceback
BAD_INPUTS = {
    "montecarlo-zero-trials": lambda tmp: [
        "montecarlo", "--n", "30", "--d", "2", "--workers", "5", "--phi", "0.5",
        "--trials", "0", "--seed", "3"],
    "simulate-zero-rounds": lambda tmp: [
        "simulate", "--n", "20", "--d", "2", "--workers", "3", "--rounds", "0",
        "--phi-list", "0.5", "--seed", "5"],
    "simulate-phi-list-not-numbers": lambda tmp: [
        "simulate", "--n", "20", "--d", "2", "--workers", "3", "--rounds", "2",
        "--phi-list", "0.3,abc", "--seed", "5"],
    "simulate-phi-list-empty": lambda tmp: [
        "simulate", "--n", "20", "--d", "2", "--workers", "3", "--rounds", "2",
        "--phi-list", "", "--seed", "5"],
    "sweep-grid-not-an-object": lambda tmp: _sweep_argv(tmp, "[1, 2]"),
    "sweep-grid-missing-axes": lambda tmp: _sweep_argv(tmp, '{"n": [6]}'),
    "sweep-grid-axis-not-numbers": lambda tmp: _sweep_argv(
        tmp, '{"n": [6], "d": ["2"], "N": [3]}'),
    "sweep-grid-not-json": lambda tmp: _sweep_argv(tmp, "{n: 6"),
    "sweep-grid-phi-above-one": lambda tmp: _sweep_argv(
        tmp, '{"n": [6], "d": [2], "N": [3], "phi": [1.5]}'),
    "sweep-grid-phi-below-zero": lambda tmp: _sweep_argv(
        tmp, '{"n": [6], "d": [2], "N": [3], "phi": [-0.5]}'),
    "sweep-grid-fractional-n": lambda tmp: _sweep_argv(
        tmp, '{"n": [40.7], "d": [2], "N": [3.9]}'),
    "verify-float-and-string-index": lambda tmp: [
        "verify", "--partition", str(_partition_with_first_edge(tmp, [1.9, "2"]))],
    "eval-float-and-string-index": lambda tmp: [
        "eval", "--partition", str(_partition_with_first_edge(tmp, [1.9, "2"]))],
    "eval-params-s-string": lambda tmp: [
        "eval", "--partition", str(_partition_with_params(tmp, s="2"))],
    "eval-params-s-float": lambda tmp: [
        "eval", "--partition", str(_partition_with_params(tmp, s=2.0))],
    "verify-params-s-float": lambda tmp: [
        "verify", "--partition", str(_partition_with_params(tmp, s=2.0))],
    "eval-params-missing-key": lambda tmp: [
        "eval", "--partition", str(_partition_without_param(tmp, "q"))],
    "verify-params-extra-key": lambda tmp: [
        "verify", "--partition", str(_partition_with_params(tmp, extra=1))],
    # the params have the right types, but no derivation gives them
    "eval-params-differ-from-derived": lambda tmp: [
        "eval", "--partition", str(_partition_with_params(tmp, q=2))],
    "eval-N-differs-from-groups": lambda tmp: [
        "eval", "--partition", str(_partition_with_keys(tmp, N=4))],
    "eval-d-above-n": lambda tmp: ["eval", "--partition", _baseline_with_keys(tmp, d=8)],
    "eval-d-zero": lambda tmp: ["eval", "--partition", _baseline_with_keys(tmp, d=0)],
    "eval-N-zero": lambda tmp: [
        "eval", "--partition", _baseline_with_keys(tmp, N=0, groups=[], footprints=[])],
    "verify-d-above-n": lambda tmp: ["verify", "--partition", _baseline_with_keys(tmp, d=8)],
    "verify-d-zero": lambda tmp: ["verify", "--partition", _baseline_with_keys(tmp, d=0)],
    "verify-N-zero": lambda tmp: [
        "verify", "--partition", _baseline_with_keys(tmp, N=0, groups=[], footprints=[])],
    "eval-case-bogus": lambda tmp: [
        "eval", "--partition", str(_partition_with_keys(tmp, case="bogus"))],
    "verify-case-bogus": lambda tmp: [
        "verify", "--partition", str(_partition_with_keys(tmp, case="bogus"))],
    "eval-format-version-true": lambda tmp: [
        "eval", "--partition", str(_partition_with_keys(tmp, format_version=True))],
    "verify-format-version-float": lambda tmp: [
        "verify", "--partition", str(_partition_with_keys(tmp, format_version=1.0))],
    "eval-metadata-not-an-object": lambda tmp: [
        "eval", "--partition", str(_partition_with_keys(tmp, metadata=[1]))],
    "verify-metadata-not-an-object": lambda tmp: [
        "verify", "--partition", str(_partition_with_keys(tmp, metadata=5))],
    # refused before the N groups are allocated
    "partition-workers-beyond-the-cap": lambda tmp: [
        "partition", "--n", "6", "--d", "2", "--workers", "1000000000000"],
    "montecarlo-workers-beyond-the-cap": lambda tmp: [
        "montecarlo", "--n", "6", "--d", "2", "--workers", "1000000000000", "--phi", "0.5",
        "--trials", "1", "--seed", "3"],
    "eval-tasks-phi-not-a-number": lambda tmp: _eval_tasks_argv(tmp, "phi: zz"),
    "eval-tasks-seed-not-an-integer": lambda tmp: _eval_tasks_argv(tmp, "seed: abc"),
    # NaN would be written into the partition JSON as the bare token NaN, which is not JSON
    "partition-tasks-phi-nan": lambda tmp: [
        "partition", "--n", "7", "--d", "2", "--workers", "3",
        "--tasks", _tasks_with_comment(tmp, "phi: nan")],
    "eval-tasks-outside-the-partition": _eval_tasks_outside_the_partition,
    "thin-beyond-the-byte-budget": lambda tmp: [
        "thin", "--n", "5000", "--d", "3", "--phi", "0.5", "--seed", "1"],
    "thin-complete-beyond-the-byte-budget": lambda tmp: [
        "thin", "--n", "1800", "--d", "3", "--phi", "1.0", "--seed", "1"],
    # C(10^7, 1000) has 4,433 digits, past the interpreter's int-to-text limit
    "partition-count-past-the-digit-limit": lambda tmp: [
        "partition", "--n", "10000000", "--d", "1000", "--workers", "5"],
    "thin-count-past-the-digit-limit": lambda tmp: [
        "thin", "--n", "10000000", "--d", "1000", "--phi", "0.5", "--seed", "1"],
    "eval-tasks-on-baseline-partition": lambda tmp: [
        "eval", "--partition", _baseline_partition(tmp, 7),
        "--tasks", _tasks_file(tmp, EXAMPLE1_TEXT)],
    "bruteforce-phi-not-a-number": lambda tmp: [
        "bruteforce", "--tasks", _tasks_with_comment(tmp, "phi: zz"), "--workers", "2"],
    "bruteforce-seed-not-an-integer": lambda tmp: [
        "bruteforce", "--tasks", _tasks_with_comment(tmp, "seed: abc"), "--workers", "2"],
    "bruteforce-tasks-format-version-99": lambda tmp: [
        "bruteforce", "--tasks", _tasks_with_comment(tmp, "format_version: 99"),
        "--workers", "2"],
    "bruteforce-zero-workers-empty-tasks": lambda tmp: [
        "bruteforce", "--tasks", _tasks_file(tmp, "5 2 0\n"), "--workers", "0"],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 1
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_eval_tasks_on_a_baseline_partition_is_refused_before_the_task_file(tmp_path, capsys):
    missing = tmp_path / "no-such-tasks.txt"
    code, out, err = run(capsys, "eval", "--partition", _baseline_partition(tmp_path, 7),
                         "--tasks", str(missing))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: --tasks requires a construction partition"]
