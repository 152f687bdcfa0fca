"""blind-rounds: one blind placement serves a sequence of task sets.

n=121, d=3, N=40 is the non-divisible case (s0=13, g=30 excluded files,
N'=35 labels of which 5 are split by the N-way extension), with
C(121, 3) = 287,980 tuples.  The placement is built once; every round
then thins a task set (phi cycling through 0.1, 0.5, 0.9), refines the
placement's groups against it and reports its costs.  A Monte Carlo phase
at phi=0.5 follows.  The paper's headline use: the work is in the build,
thin, refine, metrics and harness layers, none in routing or formats.
"""

from __future__ import annotations

import gc
from itertools import chain
from time import perf_counter

from common import (
    budget, calibrate, group_digest, median, peak_rss_mb, resident_mb, route_traced,
    scaled_median, seed_stream,
)
from ic_alloc import design
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import binomial
from ic_alloc.design import assign_base_group, build_base_partition, derive_parameters, refine
from ic_alloc.harness import monte_carlo_delta
from ic_alloc.metrics import full_report
from spans import NULL

N_FILES, D, WORKERS = 121, 3, 40
PHIS = (0.1, 0.5, 0.9)
MC_PHI = 0.5
MC_TRIALS = 2  # per monte_carlo_delta call
WARM_BUILDS = 3  # traced run only
ROUTE_SAMPLE = 64  # tuples per round checked against the closed-form router
ROUND_SHARE = 0.85  # of the time budget; Monte Carlo gets the rest
SETUP_EVERY = 2  # cycles between timed set-ups
TOTAL = binomial(N_FILES, D)


def run(seed: int, seconds: float, tracer, ledger, work) -> dict:
    traced = tracer.enabled
    state: dict = {}

    def setup():
        # Cold means without the construction cache, which holds one
        # build per (n, d, k) for the life of the process.
        design._prime_partition.cache_clear()
        state.pop("base", None)
        gc.collect()
        cal = calibrate()
        rss0 = resident_mb()
        t0 = perf_counter()
        with tracer.span("design.derive_parameters"):
            params = derive_parameters(N_FILES, D, WORKERS)
        with tracer.span("design.build_base_partition.cold", work=TOTAL):
            base = build_base_partition(params)
        elapsed = perf_counter() - t0
        if "reference" not in state:
            state["build_rss_mb"] = resident_mb() - rss0
            # an independent build: every later placement must equal it
            state["reference"] = base.footprints
        state["params"], state["base"] = params, base
        return (elapsed, cal), {"placement_rebuild_equal": base.footprints == state["reference"]}

    setup_s = []  # (seconds, calibration seconds) per set-up

    def time_setup():
        timed = ledger.attempt(setup)
        if timed is not None:
            setup_s.append(timed)

    time_setup()
    params = state["params"]

    if traced:
        def warm():
            with tracer.span("design.build_base_partition.warm", work=TOTAL):
                again = build_base_partition(params)
            return None, {"placement_rebuild_equal": again.footprints == state["reference"]}

        for _ in range(WARM_BUILDS):
            ledger.attempt(warm)

    seeds = seed_stream(seed, "rounds")
    pick = seed_stream(seed, "route-sample")
    kept = []

    def one_round(i: int, phi: float, tseed: int, tr):
        # Every round starts from an empty collector, so that garbage left
        # by the previous one is not collected inside this one's timing.
        gc.collect()
        cal = calibrate()
        t0 = perf_counter()
        with tr.span("bench.round"):
            with tr.span("baselines.thin", work=TOTAL):
                x = thin(N_FILES, D, ThinningSpec(phi=phi, seed=tseed))
            with tr.span("design.refine", work=len(x)):
                fp = refine(state["base"], x)
            with tr.span("metrics.full_report"):
                report = full_report(fp)
        elapsed = perf_counter() - t0
        kept.append(len(x))

        checks = {
            "groups_within_placement": all(
                set(chain.from_iterable(g)) <= set(held) for g, held in zip(fp.groups, fp.placement)
            ),
            "groups_union_is_x": sorted(chain.from_iterable(fp.groups)) == list(x.edges),
            "placement_blind": fp.placement == state["reference"],
            "bounds_ok": report.bounds_ok,
        }
        # differential: the closed-form router against the materialized groups
        sample = dict.fromkeys(pick.sample(x.edges, min(ROUTE_SAMPLE, len(x))))
        for b, g in enumerate(fp.groups, start=1):
            for t in g:
                if t in sample:
                    sample[t] = b
        with tr.span("bench.route_sample"):
            if tr.enabled:
                routed = {t: route_traced(t, params, tr) for t in sample}
            else:
                routed = {t: assign_base_group(t, params) for t in sample}
        checks["router_matches_groups"] = routed == sample

        if i < len(PHIS):
            ledger.digest(f"round{i}", {
                "phi": phi, "seed": tseed, "groups": group_digest(fp.groups),
                "report": report.as_dict(),
            })
        return (elapsed, cal), checks

    # Rounds go in cycles of one round per phi.  Cycles alternate untraced
    # and traced, so that the traced run measures its own tracing overhead
    # on an equal phi mix.  Set-up is timed again every SETUP_EVERY
    # cycles, so that its median spans the run rather than one moment of
    # it; each rebuild replaces the placement that later rounds use.
    # round_s holds (seconds, calibration seconds) per round.
    round_s = {(traced_cycle, phi): [] for traced_cycle in (False, True) for phi in PHIS}
    for c in budget(seconds * ROUND_SHARE, minimum=2 if traced else 1):
        tr = tracer if traced and c % 2 else NULL
        for k, phi in enumerate(PHIS):
            timed = ledger.attempt(one_round, c * len(PHIS) + k, phi, seeds.getrandbits(63), tr)
            if timed is not None:
                round_s[tr.enabled, phi].append(timed)
        if c % SETUP_EVERY == SETUP_EVERY - 1:
            time_setup()

    mc_seeds = seed_stream(seed, "monte-carlo")

    def one_mc(j: int, mseed: int, tr):
        gc.collect()
        t0 = perf_counter()
        with tr.span("harness.monte_carlo_delta", work=MC_TRIALS):
            summary = monte_carlo_delta(N_FILES, D, WORKERS, MC_PHI, MC_TRIALS, mseed)
        elapsed = perf_counter() - t0
        checks = {
            "mc_trials_run": summary.trials == MC_TRIALS,
            "mc_delta_ordered": summary.min_delta <= summary.mean_delta <= summary.max_delta,
            # phi=0.5 is above phi_min here, so delta_X <= 5 is guaranteed w.h.p.
            "mc_in_regime": not summary.vacuous and MC_PHI >= summary.phi_min,
            "mc_delta_le_5": summary.fraction_delta_le_5 == 1.0,
        }
        if j == 0:
            ledger.digest("monte_carlo0", summary.as_dict())
        return elapsed, checks

    mc_s = []
    for j in budget(seconds * (1 - ROUND_SHARE), minimum=2 if traced else 1):
        tr = tracer if traced and j % 2 else NULL
        elapsed = ledger.attempt(one_mc, j, mc_seeds.getrandbits(63), tr)
        if elapsed is not None:
            mc_s.append(elapsed)

    def cycles(traced_cycle: bool) -> list[float]:
        return [sum(s for s, _ in c) for c in zip(*(round_s[traced_cycle, phi] for phi in PHIS))]

    rounds = [s for phi in PHIS for s, _ in round_s[False, phi]]
    layer = {
        "design.build_base_partition.rss_mb": state["build_rss_mb"],
        "design.build_base_partition.bytes_per_tuple": state["build_rss_mb"] * 2**20 / TOTAL,
        "baselines.thin.kept_ratio": sum(kept) / (len(kept) * TOTAL) if kept else 0.0,
    }
    if traced:
        layer["trace.overhead_ms"] = (median(cycles(True)) - median(cycles(False))) * 1e3
    return {
        "instance": dict(params.__dict__),
        "op": "a cycle of three rounds",
        "setup_s": setup_s,
        "ops": cycles(False),
        # a cycle at calibration speed: the scaled median round at each phi
        "op_s": sum(scaled_median(round_s[False, phi]) for phi in PHIS),
        "peak_rss_mb": peak_rss_mb(),
        "named": {
            "rounds_per_s": len(rounds) / sum(rounds) if rounds else 0.0,
            "mc_trials_per_s": MC_TRIALS * len(mc_s) / sum(mc_s) if mc_s else 0.0,
        },
        "layer": layer,
    }
