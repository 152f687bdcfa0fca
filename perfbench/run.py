"""ic-alloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/README.md) in this
process for about S seconds, checks every output, and prints two JSON
lines on stdout.  The first carries the context: git sha, Python version,
core count, seed, instance parameters, the workload's own named metrics
with failed_ratio, the operation and set-up times as measured, the failed
checks and the digest of its semantic output.  The last is the result:
correct, attempted, failed and the metrics, which are the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1.  The end-to-end times are at calibration speed (see
common.calibrate and perfbench/README.md).  The traced run also writes
its spans to .perfbench_work/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "blind-rounds": "blind_rounds",
    "stream-route": "stream_route",
    "cli-pipeline": "cli_pipeline",
}
NAMED_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "mc_trials_per_s": "1/s",
    "route_tuples_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
}


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ic_alloc" / "__init__.py").is_file():
        print(f"error: no ic_alloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from common import Ledger, median, percentile, scaled_median
    from spans import NULL, Tracer, layer_metrics

    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = Tracer() if args.trace else NULL
    ledger = Ledger(tracer)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    out = module.run(args.seed, args.seconds, tracer, ledger, work)

    ops = out["ops"]
    e2e = {
        "setup_s": scaled_median(out["setup_s"]),
        "op_ms": out["op_s"] * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    setup_raw = median([s for s, _ in out["setup_s"]])
    named = dict(out["named"], setup_s=setup_raw, peak_rss_mb=e2e["peak_rss_mb"])
    named["failed_ratio"] = ledger.failed / max(1, ledger.attempted)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "instance": out["instance"],
        "named": {k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()},
        "ops": {
            "op": out["op"],
            "count": len(ops),
            "median_ms": median(ops) * 1e3,
            "p90_ms": percentile(ops, 90) * 1e3,
            "best_ms": min(ops, default=0.0) * 1e3,
        },
        "setups": len(out["setup_s"]),
        "calibration_median_ms": median([c for _, c in out["setup_s"]]) * 1e3,
        "failed_checks": dict(ledger.failed_checks),
        "digest": ledger.hexdigest,
        "digested_ops": ledger.digested,
    }
    if args.trace:
        declared = spec["per_layer"]
        measured = layer_metrics(tracer)
        measured.update(out["layer"])
        # Layers this workload never calls read 0; they are listed.
        info["not_exercised"] = sorted(m["name"] for m in declared if m["name"] not in measured)
        spans_file = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    else:
        declared = spec["end_to_end"]
        measured = e2e
    names = {m["name"] for m in declared}
    if set(measured) - names or (not args.trace and set(measured) != names):
        raise KeyError(f"metrics {sorted(measured)} do not match BENCHMARK.json {sorted(names)}")

    print(json.dumps(info))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
