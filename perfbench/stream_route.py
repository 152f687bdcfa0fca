"""stream-route: raw edges routed in closed form, beyond the
materialization cap.

n=600, d=3, N=200 gives C(600, 3) = 35,820,200 tuples, over the 10^7 cap,
so no base partition can be built.  It is non-divisible (k=11, s0=43,
g=127, N'=165, 35 labels split).  The benchmark draws distinct tuples,
alternately uniform over [n] and local (all d files inside a window two
families wide), and serves them in batches: TaskSet.from_edges
canonicalises a batch and assign_tasks routes it.  The only path that
works beyond the cap; almost all of its work is the closed-form router.
Local tuples have full support less often than uniform ones, so they
exercise other parts of the router.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from time import perf_counter

from common import (
    budget, calibrate, group_digest, median, peak_rss_mb, route_traced, scaled_median,
    seed_stream,
)
from ic_alloc.design import assign_tasks, derive_parameters, eligible_placement
from ic_alloc.tasks import TaskSet
from spans import NULL

N_FILES, D, WORKERS = 600, 3, 200
LOCAL_WINDOW = 86  # two families of s0 = 43 files
BATCH = 1024
DIGEST_BATCHES = 2


class TupleSource:
    """Distinct d-tuples over [1, n], alternately uniform and local.

    Distinctness across the whole run is kept in a bitmap over colex
    ranks, allocated in full up front so that its memory does not depend
    on how many tuples the run draws.
    """

    def __init__(self, seed: int):
        self.rng = seed_stream(seed, "tuples")
        self.seen = bytearray(comb(N_FILES, D) // 8 + 1)
        self.drawn = 0

    def draw(self) -> tuple[int, ...]:
        rng = self.rng
        while True:
            if self.drawn % 2:
                lo = rng.randint(1, N_FILES - LOCAL_WINDOW + 1)
                t = tuple(sorted(rng.sample(range(lo, lo + LOCAL_WINDOW), D)))
            else:
                t = tuple(sorted(rng.sample(range(1, N_FILES + 1), D)))
            rank = sum(comb(x - 1, i + 1) for i, x in enumerate(t))
            byte, bit = divmod(rank, 8)
            if not self.seen[byte] >> bit & 1:
                self.seen[byte] |= 1 << bit
                self.drawn += 1
                return t

    def batch(self) -> list[tuple[int, ...]]:
        return [self.draw() for _ in range(BATCH)]


def run(seed: int, seconds: float, tracer, ledger, work) -> dict:
    traced = tracer.enabled
    state: dict = {}

    def setup():
        cal = calibrate()
        t0 = perf_counter()
        with tracer.span("design.derive_parameters"):
            params = derive_parameters(N_FILES, D, WORKERS)
        with tracer.span("design.eligible_placement"):
            placement = eligible_placement(params)
        elapsed = perf_counter() - t0
        state.setdefault("placement", placement)
        state["params"] = params
        return (elapsed, cal), {
            "placement_covers_workers": len(placement) == WORKERS,
            "placement_rebuild_equal": placement == state["placement"],
        }

    setup_s = []  # (seconds, calibration seconds) per set-up

    def time_setup():
        timed = ledger.attempt(setup)
        if timed is not None:
            setup_s.append(timed)

    time_setup()
    params, placement = state["params"], state["placement"]
    held = [frozenset(files) for files in placement]
    source = TupleSource(seed)

    def one_batch(i: int, edges, tr):
        cal = calibrate()
        t0 = perf_counter()
        with tr.span("bench.batch"):
            with tr.span("tasks.from_edges", work=len(edges)):
                tasks = TaskSet.from_edges(N_FILES, D, edges)
            with tr.span("design.assign_tasks", work=len(edges)):
                fp = assign_tasks(params, tasks)
        elapsed = perf_counter() - t0
        checks = {
            "groups_union_is_x": sorted(chain.from_iterable(fp.groups)) == sorted(edges),
            "group_sizes_sum": sum(len(g) for g in fp.groups) == len(edges),
            "placement_blind": fp.placement == placement,
            "tuples_within_placement": all(
                set(t) <= files for g, files in zip(fp.groups, held) for t in g
            ),
        }
        if tr.enabled:
            # per-tuple routing latency, outside the timed operation
            with tr.span("bench.route_probe"):
                routed = {t: route_traced(t, params, tr) for t in tasks.edges}
            checks["probe_matches_batch"] = all(
                routed[t] == b for b, g in enumerate(fp.groups, start=1) for t in g
            )
        if i < DIGEST_BATCHES:
            ledger.digest(f"batch{i}", group_digest(fp.groups))
        return (elapsed, cal), checks

    batch_s = {False: [], True: []}  # (seconds, calibration seconds) per batch
    for i in budget(seconds, minimum=max(DIGEST_BATCHES, 2)):
        tr = tracer if traced and i % 2 else NULL
        timed = ledger.attempt(one_batch, i, source.batch(), tr)
        if timed is not None:
            batch_s[tr.enabled].append(timed)
        # set-up is timed again between batches, so that its median
        # spans the run rather than one moment of it
        time_setup()

    untraced = [s for s, _ in batch_s[False]]
    layer = {}
    if traced:
        traced_s = [s for s, _ in batch_s[True]]
        layer["trace.overhead_ms"] = (median(traced_s) - median(untraced)) * 1e3
    return {
        "instance": dict(params.__dict__),
        "op": f"a batch of {BATCH} tuples",
        "setup_s": setup_s,
        "ops": untraced,
        "op_s": scaled_median(batch_s[False]),
        "peak_rss_mb": peak_rss_mb(),
        "named": {
            "route_tuples_per_s": BATCH * len(untraced) / sum(untraced) if untraced else 0.0,
        },
        "layer": layer,
    }
