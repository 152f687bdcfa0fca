"""Invariant checking for serialized partitions: structural validity,
placement feasibility, parameter consistency, and the promised cost
bounds.  Used by the `verify` CLI subcommand."""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import binomial, validate_dtuple
from .design import (
    DEFAULT_MATERIALIZE_CAP,
    FinalPartition,
    _within_placement,
    build_base_partition,
    derive_parameters,
)
from .errors import ICAllocError
from .metrics import full_report


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def run_invariant_checks(p: FinalPartition) -> list[Check]:
    checks: list[Check] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(Check(name, ok, detail))

    # structural validity
    bad_edges = 0
    for g in p.groups:
        for t in g:
            try:
                validate_dtuple(t, p.n)
                if len(t) != p.d:
                    bad_edges += 1
            except ICAllocError:
                bad_edges += 1
    add("edges_well_formed", bad_edges == 0, f"{bad_edges} malformed edges")

    total = sum(len(g) for g in p.groups)
    distinct = len({t for g in p.groups for t in g})
    add("groups_disjoint", distinct == total, f"{total} edges, {distinct} distinct")
    add(
        "edge_count_within_universe",
        total <= binomial(p.n, p.d),
        f"{total} <= C({p.n},{p.d})",
    )

    add("assignments_feasible", _within_placement(p), "every group within its placement")

    if p.params is None:
        return checks

    # parameter consistency
    try:
        rederived = derive_parameters(p.params.n, p.params.d, p.params.N)
        add("params_rederivable", rederived == p.params, "stored == derived")
    except ICAllocError as exc:
        add("params_rederivable", False, str(exc))
        return checks

    # the rest is checked against the derived parameters, which a tampered
    # params object cannot change
    report = full_report(p, rederived)
    add("promised_bounds", report.bounds_ok, "all applicable cost bounds hold")

    # for a complete task set, the groups must reproduce the construction
    if total == binomial(p.n, p.d) and binomial(p.n, p.d) <= DEFAULT_MATERIALIZE_CAP:
        base = build_base_partition(rederived)
        add(
            "matches_construction",
            tuple(tuple(sorted(g)) for g in p.groups) == base.groups,
            "group contents equal the canonical construction",
        )
        add(
            "footprints_match_construction",
            p.placement == base.footprints,
            "placement equals the canonical footprints",
        )
    return checks
