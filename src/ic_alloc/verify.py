"""Invariant checking for serialized partitions: placement feasibility,
parameter consistency, the construction and the promised cost bounds.  The
groups were checked where the partition entered (design.validate_groups), so
the three structural lines always pass.  Used by the `verify` CLI subcommand."""

from __future__ import annotations

from .combinatorics import binomial
from .design import (
    DEFAULT_MATERIALIZE_CAP,
    Partition,
    _within_placement,
    build_base_partition,
    derive_parameters,
)
from .errors import ICAllocError
from .metrics import full_report
from .records import Record


class Check(Record):
    name: str
    ok: bool
    detail: str = ""


def run_invariant_checks(p: Partition) -> list[Check]:
    checks: list[Check] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(Check(name, ok, detail))

    total = sum(map(len, p.groups))
    universe = binomial(p.n, p.d)
    rederived = base = None
    if p.params is not None:
        try:
            rederived = derive_parameters(p.params.n, p.params.d, p.params.N)
        except ICAllocError as exc:
            derive_error = str(exc)
    # a correct file's groups lie inside the blind construction's; parse checked n, d, N
    if rederived is not None and universe <= DEFAULT_MATERIALIZE_CAP:
        base = build_base_partition(rederived)
    same = base is not None and p.groups == base.groups
    matches = same or base is not None and all(
        set(b).issuperset(g) for g, b in zip(p.groups, base.groups))

    # structural validity, checked at parse
    add("edges_well_formed", True, "0 malformed edges")
    add("groups_disjoint", True, f"{total} edges, {total} distinct")
    add("edge_count_within_universe", total <= universe, f"{total} <= C({p.n},{p.d})")

    # groups inside the construction's touch only files of its placement
    feasible = (matches and all(map(set.issuperset, map(set, p.placement), base.placement))
                or _within_placement(p))
    add("assignments_feasible", feasible, "every group within its placement")

    if p.params is None:
        return checks

    # parameter consistency
    if rederived is None:
        add("params_rederivable", False, derive_error)
        return checks
    add("params_rederivable", rederived == p.params, "stored == derived")

    # the rest is checked against the derived parameters, which a tampered params object
    # cannot change; groups equal to the construction's take its report (and footprints)
    report = full_report(base if same else p, rederived)
    add("promised_bounds", report.bounds_ok, "all applicable cost bounds hold")

    if base is not None:
        add("matches_construction", matches, "group contents equal the canonical construction"
            if same else "each group lies inside the construction's group")
        add("footprints_match_construction", p.placement == base.placement,
            "placement equals the canonical footprints")
    return checks
