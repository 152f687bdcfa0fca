"""Experiment drivers: Monte Carlo verification of the high-probability
balance guarantee, parameter sweeps for bound-vs-achieved tables, and the
multi-round blind-allocation simulation.

Trial i (from 0) thins with the seed tuple_draw(master_seed, i + 1), the
splitmix64 draw the thinning generator makes for rank i + 1, so trials may
run in any order or in parallel with identical results.
"""

from __future__ import annotations

from itertools import product

from .baselines import ThinningSpec, thin, tuple_draw
from .counting import phi_min, pi_lower_bound
from .design import _within_placement, build_base_partition, derive_parameters, refine
from .errors import DegenerateDenominator, ICAllocError, InvalidArgument, SchemaError
from .metrics import CostReport, delta_of, full_report, pi_of
from .records import Record


def trial_seed(master_seed: int, index: int) -> int:
    """Deterministic, platform-independent per-trial seed."""
    return tuple_draw(master_seed, index + 1)


def _refined(n: int, d: int, N: int, specs):
    """Derive and build the construction once; return its parameters, the
    base partition and a generator of the base refined by each spec's
    thinning, so only one refined partition is alive at a time."""
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    return params, base, (refine(base, thin(n, d, spec)) for spec in specs)


class MonteCarloSummary(Record):
    n: int
    d: int
    N: int
    phi: float
    trials: int
    master_seed: int
    fraction_delta_le_5: float
    min_delta: float
    mean_delta: float
    max_delta: float
    phi_min: float | None
    vacuous: bool


def monte_carlo_delta(
    n: int, d: int, N: int, phi: float, trials: int, master_seed: int
) -> MonteCarloSummary:
    """Thin the complete task set `trials` times against one fixed base
    partition and summarize the observed balance factors."""
    if trials < 1:
        raise InvalidArgument(f"need trials >= 1, got {trials}")
    specs = [ThinningSpec(phi=phi, seed=trial_seed(master_seed, i)) for i in range(trials)]
    _, _, refined = _refined(n, d, N, specs)
    deltas = list(map(delta_of, refined))

    try:
        pm = phi_min(n, d, N)
    except DegenerateDenominator:
        # too few tuples per worker for the concentration argument: the
        # threshold is undefined and the guarantee silent, but the trials
        # are still worth reporting
        pm = None
    return MonteCarloSummary(
        n=n,
        d=d,
        N=N,
        phi=phi,
        trials=trials,
        master_seed=master_seed,
        fraction_delta_le_5=sum(delta <= 5.0 for delta in deltas) / trials,
        min_delta=min(deltas),
        mean_delta=sum(deltas) / len(deltas),
        max_delta=max(deltas),
        phi_min=None if pm is None else pm.value,
        vacuous=pm is None or pm.vacuous,
    )


class SweepRecord(Record):
    """One sweep row.  Its fields up to bounds_ok are the CSV columns, in
    column order (delta_x is the column delta_X)."""

    n: int
    d: int
    N: int
    phi: float
    seed: int
    case: str
    k: int | None = None
    s: int | None = None
    g: int | None = None
    pi: int | None = None
    pi_lb: float | None = None
    gap: float | None = None
    delta: float | None = None
    delta_x: float | None = None
    arf: float | None = None
    bounds_ok: bool | None = None
    error: str | None = None


def grid_points(axes: dict) -> list[tuple[int, int, int, float, int]]:
    """Cartesian product of the grid axes n, d, N, phi, seed.  n, d and N
    are required; phi defaults to [1.0] and seed to [0].  phi takes numbers
    in [0, 1], every other axis JSON integers only."""
    if not isinstance(axes, dict) or not {"n", "d", "N"} <= axes.keys():
        raise SchemaError("a sweep grid must be a JSON object with the axes n, d and N")
    axes = {"phi": [1.0], "seed": [0], **axes}
    names = ("n", "d", "N", "phi", "seed")
    for name in names:
        kinds, what = ((int, float), "numbers") if name == "phi" else ((int,), "integers")
        values = axes[name]
        if not isinstance(values, list) or not all(type(v) in kinds for v in values):
            raise SchemaError(f"sweep axis {name!r} must be a list of {what}, got {values!r}")
    if not all(0.0 <= phi <= 1.0 for phi in axes["phi"]):  # false for NaN as well
        raise SchemaError(f"sweep axis 'phi' must lie in [0, 1], got {axes['phi']!r}")
    return [
        (n, d, N, float(phi), seed)
        for n, d, N, phi, seed in product(*(axes[a] for a in names))
    ]


def sweep(points) -> list[SweepRecord]:
    """Evaluate every (n, d, N, phi, seed) point; unsupported points become
    skip records rather than failures."""
    records: list[SweepRecord] = []
    for n, d, N, phi, seed in points:
        spec = ThinningSpec(phi=phi, seed=seed)  # phi is checked before the build
        try:
            params, base, refined = _refined(n, d, N, [spec] if phi < 1.0 else [])
        except ICAllocError as exc:
            records.append(SweepRecord(n=n, d=d, N=N, phi=phi, seed=seed,
                                       case="unsupported", error=str(exc)))
            continue
        full = full_report(base, params, 1.0)
        refined_report = next((full_report(fp, params, phi) for fp in refined), full)
        records.append(
            SweepRecord(
                n=n,
                d=d,
                N=N,
                phi=phi,
                seed=seed,
                case=params.case,
                k=params.k,
                s=params.family_size,
                g=params.g,
                pi=full.pi,
                pi_lb=pi_lower_bound(n, d, N, phi) if phi > 0 else 0.0,
                gap=full.gap,
                delta=full.delta,
                delta_x=refined_report.delta,
                arf=full.arf,
                bounds_ok=full.bounds_ok and refined_report.bounds_ok,
            )
        )
    return records


class SimulationResult(Record):
    """Per-round cost reports plus the blind-allocation verdict."""

    reports: tuple[CostReport, ...]
    placement_identical: bool = True
    feasible: bool = True
    placement_pi: int = 0

    @property
    def verdict(self) -> str:
        return "PASS" if self.placement_identical and self.feasible else "FAIL"

    def as_dict(self) -> dict:
        # the verdict first, then the fields, the reports moved last as "rounds"
        out = {"verdict": self.verdict, **self.__dict__}
        out["rounds"] = [r.as_dict() for r in out.pop("reports")]
        return out


def simulate_rounds(
    n: int, d: int, N: int, round_specs: list[ThinningSpec]
) -> SimulationResult:
    """Build the file placement once, then serve every round's task set by
    refinement alone.  The verdict checks that every round's placement
    equals the one built before the first round and that every round's
    group only touches files its worker holds."""
    if not round_specs:
        raise InvalidArgument("need at least one round")
    params, base, refined = _refined(n, d, N, round_specs)
    placement_pi = pi_of(base)

    reports: list[CostReport] = []
    identical = feasible = True
    for spec, fp in zip(round_specs, refined):
        identical = fp.placement == base.placement and identical
        feasible = _within_placement(fp) and feasible
        reports.append(full_report(fp, params, spec.phi))
    return SimulationResult(
        reports=tuple(reports),
        placement_identical=identical,
        feasible=feasible,
        placement_pi=placement_pi,
    )
