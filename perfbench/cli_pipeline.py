"""cli-pipeline: the four CLI steps as child processes connected by files.

n=96, d=3, N=30 is the divisible case (s=16), with C(96, 3) = 142,880
tuples and a partition file of about 7.4 MB.  It is the smallest n that
divides into k=6 families inside the guarantee regime (d <= n/32), so a
pipeline takes about 3 s and a run holds about ten.  Each pipeline runs
partition -> thin -> eval --tasks -> verify.  The user-facing path: it is
dominated by partition JSON emit and parse and by verify's rebuild, uses
formats for writing (partition, thin) and reading (eval, verify), and is
the only workload with the divisible case.

Each step's peak RSS comes from that child's own rusage (os.wait4), not
from RUSAGE_CHILDREN, whose high-water mark covers every child so far.
The traced run also replays each traced pipeline in-process, after the
last child has run, through the same public functions, to time the
formats and verify layers, and times interpreter start plus
``import ic_alloc.cli``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

from common import budget, calibrate, median, resident_mb, scaled_median, seed_stream
from ic_alloc import design
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import binomial
from ic_alloc.design import BasePartition, as_final, build_base_partition, derive_parameters, refine
from ic_alloc.formats import emit_partition, emit_tasks, parse_partition, parse_tasks
from ic_alloc.metrics import full_report
from ic_alloc.verify import run_invariant_checks
from spans import NULL

N_FILES, D, WORKERS, PHI = 96, 3, 30, 0.5
TOTAL = binomial(N_FILES, D)
STEPS = ("partition", "thin", "eval", "verify")
IMPORT_REPS = 5  # traced run only


def spawn(argv: list[str], out: Path, env: dict) -> tuple[float, int, float]:
    """Run ``python argv`` with stdout to ``out`` and stderr beside it;
    return wall seconds, exit code and the child's own peak RSS in MB."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out.with_suffix(".err")), flags, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def run(seed: int, seconds: float, tracer, ledger, work: Path) -> dict:
    traced = tracer.enabled
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    tmp = work / f"cli-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    part, tasks = tmp / "part.json", tmp / "tasks.txt"
    size = ["--n", str(N_FILES), "--d", str(D)]
    step_s = {name: [] for name in STEPS}  # (seconds, calibration seconds) per run
    step_rss = {name: [] for name in STEPS}
    layer: dict = {}
    replays = []  # (thin seed, eval report) of each traced pipeline

    def pipeline(i: int, tseed: int, tr):
        argv = {
            "partition": ["partition", *size, "--workers", str(WORKERS), "--out", str(part)],
            "thin": ["thin", *size, "--phi", str(PHI), "--seed", str(tseed), "--out", str(tasks)],
            "eval": ["eval", "--partition", str(part), "--tasks", str(tasks)],
            "verify": ["verify", "--partition", str(part)],
        }
        checks = {}
        elapsed = 0.0  # the steps' wall times, without the calibrations
        with tr.span("bench.pipeline"):
            for name in STEPS:
                cal = calibrate()
                with tr.span(f"cli.{name}"):
                    secs, code, rss = spawn(["-m", "ic_alloc.cli", *argv[name]], tmp / f"{name}.out", env)
                elapsed += secs
                step_s[name].append((secs, cal))
                step_rss[name].append(rss)
                checks[f"{name}_exit_0"] = code == 0
                if code != 0:
                    break
        if not all(checks.values()):
            return elapsed, checks

        report = json.loads((tmp / "eval.out").read_text())
        verdict = json.loads((tmp / "verify.out").read_text())
        header = next(line for line in tasks.read_text().splitlines() if not line.startswith("#"))
        checks["eval_bounds_ok"] = report["bounds_ok"] is True
        checks["eval_counts_all_tasks"] = report["task_count"] == int(header.split()[2])
        checks["verify_ok"] = verdict["ok"] is True
        if i == 0:
            ledger.digest("eval0", report)
            ledger.digest("verify0", verdict)
        if tr.enabled:
            replays.append((tseed, report))
        return elapsed, checks

    def check_replay(tseed: int, report: dict):
        replayed = replay(tseed, tracer)
        return None, {
            "replay_checks_ok": layer["verify.checks_failed"] == 0,
            "replay_report_equal": replayed == report,
        }

    def replay(tseed: int, tr) -> dict:
        """The four steps in-process, files kept in memory; returns the
        eval report as the eval step prints it."""
        design._prime_partition.cache_clear()
        rss0 = resident_mb()
        with tr.span("bench.replay.partition"):
            with tr.span("design.derive_parameters"):
                params = derive_parameters(N_FILES, D, WORKERS)
            with tr.span("design.build_base_partition.cold", work=TOTAL):
                base = build_base_partition(params)
            layer.setdefault("design.build_base_partition.rss_mb", resident_mb() - rss0)
            with tr.span("formats.emit_partition"):
                part_text = emit_partition(as_final(base))
        del base
        design._prime_partition.cache_clear()
        with tr.span("bench.replay.thin"):
            with tr.span("baselines.thin", work=TOTAL):
                x = thin(N_FILES, D, ThinningSpec(phi=PHI, seed=tseed))
            with tr.span("formats.emit_tasks"):
                task_text = emit_tasks(x)
        layer["baselines.thin.kept_ratio"] = len(x) / TOTAL
        del x
        with tr.span("bench.replay.eval"):
            with tr.span("formats.parse_partition"):
                fp = parse_partition(part_text)
            with tr.span("formats.parse_tasks"):
                xs = parse_tasks(task_text)
            base = BasePartition(params=fp.params, groups=fp.groups, footprints=fp.placement)
            with tr.span("design.refine", work=len(xs)):
                refined = refine(base, xs)
            with tr.span("metrics.full_report"):
                report = full_report(refined, refined.params)
        del fp, xs, base, refined
        with tr.span("bench.replay.verify"):
            with tr.span("formats.parse_partition"):
                fp = parse_partition(part_text)
            with tr.span("verify.run_invariant_checks"):
                verdict = run_invariant_checks(fp)
        layer["verify.checks_failed"] = sum(not c.ok for c in verdict)
        layer["formats.partition_bytes"] = len(part_text.encode())
        layer["formats.tasks_bytes"] = len(task_text.encode())
        return json.loads(json.dumps(report.as_dict()))

    try:
        if traced:
            for _ in range(IMPORT_REPS):
                with tracer.span("cli.import"):
                    spawn(["-c", "import ic_alloc.cli"], tmp / "import.out", env)

        seeds = seed_stream(seed, "tasks")
        pipe_s = {False: [], True: []}
        # The traced run alternates untraced and traced pipelines.
        for i in budget(seconds, minimum=2 if traced else 1):
            tr = tracer if traced and i % 2 else NULL
            elapsed = ledger.attempt(pipeline, i, seeds.getrandbits(63), tr)
            if elapsed is not None:
                pipe_s[tr.enabled].append(elapsed)
        # Each traced pipeline is replayed in-process, after the last child
        # has run: Linux carries this process's RSS high-water mark into a
        # child when it execs, so a child's peak from wait4 is never below
        # it, and a replay raises it to the size of a whole pipeline.
        for tseed, report in replays:
            ledger.attempt(check_replay, tseed, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if "design.build_base_partition.rss_mb" in layer:
        layer["design.build_base_partition.bytes_per_tuple"] = (
            layer["design.build_base_partition.rss_mb"] * 2**20 / TOTAL
        )
    for name in STEPS:
        if step_rss[name]:
            layer[f"cli.{name}.rss_mb"] = median(step_rss[name])
    untraced = pipe_s[False]
    if traced:
        layer["trace.overhead_ms"] = (median(pipe_s[True]) - median(untraced)) * 1e3
    return {
        "instance": dict(derive_parameters(N_FILES, D, WORKERS).__dict__),
        "op": "a pipeline of four child processes",
        "setup_s": step_s["partition"],
        "ops": untraced,
        # a pipeline at calibration speed: the scaled median of each step
        "op_s": sum(scaled_median(step_s[name]) for name in STEPS),
        "peak_rss_mb": max((max(v) for v in step_rss.values() if v), default=0.0),
        "named": {"pipeline_s": median(untraced)},
        "layer": layer,
    }
