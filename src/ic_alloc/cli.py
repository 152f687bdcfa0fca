"""Command-line surface.

Every subcommand prints machine-readable output (JSON, or the native text
format of the artifact it produces) on stdout and diagnostics on stderr,
and exits 0 only on full success.  Each handler imports only what it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from pathlib import Path

from .errors import ICAllocError, InvalidArgument, SchemaError


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _show_warning(message, category, *_) -> None:
    # one line, without the source file and line the default format prints
    _diag(f"{category.__name__}: {message}")


def _emit(chunks, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            size = sum(map(fh.write, chunks))
        print(json.dumps({"out": out, "bytes": size}))


def _read_tasks(path: str):
    from .formats import parse_tasks
    return parse_tasks(Path(path).read_text())


def cmd_partition(args) -> int:
    from .design import build_base_partition, derive_parameters, refine
    from .formats import partition_chunks
    params = derive_parameters(args.n, args.d, args.workers)
    fp = build_base_partition(params)
    if args.tasks is not None:
        fp = refine(fp, _read_tasks(args.tasks))
    _diag(
        f"built {params.case} partition: k={params.k}, "
        f"family_size={params.family_size}, g={params.g}, N'={params.N_prime}"
    )
    _emit(partition_chunks(fp), args.out)
    return 0


def cmd_thin(args) -> int:
    from .baselines import ThinningSpec, thin
    from .formats import emit_tasks
    tasks = thin(args.n, args.d, ThinningSpec(phi=args.phi, seed=args.seed))
    _diag(f"kept {len(tasks)} of C({args.n},{args.d}) tuples")
    _emit([emit_tasks(tasks)], args.out)
    return 0


def cmd_eval(args) -> int:
    from .design import derive_parameters, refine
    from .formats import parse_partition
    from .metrics import full_report
    fp = parse_partition(Path(args.partition).read_text())
    if fp.params is not None and fp.params != derive_parameters(fp.n, fp.d, fp.N):
        raise SchemaError("stored params differ from those derived from (n, d, N)")
    if args.tasks is not None:
        if fp.params is None:
            raise ICAllocError("--tasks requires a construction partition")
        tasks = _read_tasks(args.tasks)
        fp = refine(fp, tasks)
        if (missing := len(tasks) - sum(map(len, fp.groups))) > 0:
            raise ICAllocError(f"{missing} of {len(tasks)} tasks are in no group of the partition")
    report = full_report(fp, fp.params)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def cmd_verify(args) -> int:
    from .formats import parse_partition
    from .verify import run_invariant_checks
    fp = parse_partition(Path(args.partition).read_text())
    checks = run_invariant_checks(fp)
    ok = all(c.ok for c in checks)
    print(json.dumps({"ok": ok, "checks": [c.as_dict() for c in checks]}, indent=2))
    for c in checks:
        _diag(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    return 0 if ok else 1


def cmd_bruteforce(args) -> int:
    from .oracle import DEFAULT_EDGE_CAP, brute_force_pi_star
    tasks = _read_tasks(args.tasks)
    edge_cap = DEFAULT_EDGE_CAP if args.edge_cap is None else args.edge_cap
    pi_star, witness = brute_force_pi_star(tasks, args.workers, edge_cap=edge_cap)
    print(
        json.dumps(
            {
                "pi_star": pi_star,
                "witness": [[list(t) for t in g] for g in witness],
            },
            indent=2,
        )
    )
    return 0


def cmd_montecarlo(args) -> int:
    from .harness import monte_carlo_delta
    summary = monte_carlo_delta(
        args.n, args.d, args.workers, args.phi, args.trials, args.seed
    )
    print(json.dumps(summary.as_dict(), indent=2))
    return 0


def cmd_sweep(args) -> int:
    from .formats import emit_sweep_csv
    from .harness import grid_points, sweep
    try:
        axes = json.loads(Path(args.grid).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"grid is not valid JSON: {exc}") from exc
    records = sweep(grid_points(axes))
    skipped = sum(1 for r in records if r.error is not None)
    _diag(f"swept {len(records)} points ({skipped} unsupported)")
    _emit([emit_sweep_csv(records)], args.out)
    violations = [r for r in records if r.bounds_ok is False]
    if violations:
        for r in violations:
            _diag(f"BOUND VIOLATION at n={r.n} d={r.d} N={r.N} phi={r.phi}")
        return 1
    return 0


def cmd_simulate(args) -> int:
    from .baselines import ThinningSpec
    from .harness import simulate_rounds
    try:
        phis = [float(x) for x in args.phi_list.split(",")]
    except ValueError:
        raise InvalidArgument(f"--phi-list is not a list of numbers: {args.phi_list!r}") from None
    specs = [
        ThinningSpec(phi=phis[i % len(phis)], seed=args.seed + i)
        for i in range(args.rounds)
    ]
    result = simulate_rounds(args.n, args.d, args.workers, specs)
    print(json.dumps(result.as_dict(), indent=2))
    return 0 if result.verdict == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ic-alloc",
        description=(
            "Blind data-and-task allocation: partition d-uniform task sets "
            "over n files across N workers with guaranteed communication "
            "and computation costs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the instance arguments, declared once; a parent's arguments come first
    nd = argparse.ArgumentParser(add_help=False)
    nd.add_argument("--n", type=int, required=True)
    nd.add_argument("--d", type=int, required=True)
    ndw = argparse.ArgumentParser(add_help=False, parents=[nd])
    ndw.add_argument("--workers", type=int, required=True)

    p = sub.add_parser("partition", parents=[ndw],
                       help="build a partition (optionally refined by a task file)")
    p.add_argument("--tasks", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("thin", parents=[nd], help="sample a task set by random thinning")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_thin)

    p = sub.add_parser("eval", help="cost report for a partition file")
    p.add_argument("--partition", required=True)
    p.add_argument("--tasks", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run every invariant; nonzero exit on violation")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bruteforce", help="exact optimal communication cost at tiny scale")
    p.add_argument("--tasks", required=True)
    # its own --workers, not ndw's, so that the usage line keeps it after --tasks
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--edge-cap", type=int, default=None)  # None: the oracle's default cap
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("montecarlo", parents=[ndw], help="seeded trials of the balance guarantee")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sweep", help="evaluate a JSON grid of parameter points to CSV")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[ndw],
                       help="multi-round blind allocation with a fixed placement")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--phi-list", required=True, help="comma-separated phi per round (cycled)")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Handlers build large acyclic data (tuples, lists, parsed JSON) that
    # reference counting frees; collector passes over it only cost time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ICAllocError as exc:
        _diag(f"error: {exc}")
        return 1
    except OSError as exc:
        _diag(f"io error: {exc}")
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
