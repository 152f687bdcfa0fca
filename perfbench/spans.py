"""In-memory spans recorded around the benchmark's calls into ic_alloc.

A span is (name, start, end, parent id, op id) plus an optional work
count and tag.  The name's first dotted component is the layer, i.e. the
ic_alloc module called (``design.refine`` belongs to ``design``); names
starting with ``bench.`` group the calls of one benchmark operation and
belong to no layer.  Spans are kept in memory and written out once, when
the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from common import median, percentile

LAYERS = ("design", "baselines", "tasks", "metrics", "harness", "formats", "verify", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work", "tag")

    def __init__(self, name: str, parent: int | None, op: int, work: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.work = work
        self.tag = None
        self.start = perf_counter_ns()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records nested spans; ``op`` is set by the workload before each
    operation so that every span of one operation shares its id."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        rec = Span(name, self._stack[-1] if self._stack else None, self.op, work)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter_ns()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the time its
        direct children cover, summed by layer."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            layer = s.name.split(".", 1)[0]
            if layer in out:
                out[layer] += (s.end - s.start - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "op": s.op, "work": s.work, "tag": s.tag,
                }) + "\n")


class NullTracer:
    """Stands in for Tracer on untraced operations; records nothing."""

    enabled = False
    op = 0
    _null = nullcontext()

    def span(self, name: str, work: int = 0):
        return self._null


NULL = NullTracer()


# Spans whose median duration is reported as "<name>_s".
TIMED = (
    "design.derive_parameters",
    "design.build_base_partition.cold",
    "design.build_base_partition.warm",
    "design.refine",
    "design.assign_tasks",
    "design.eligible_placement",
    "baselines.thin",
    "tasks.from_edges",
    "metrics.full_report",
    "formats.emit_partition",
    "formats.parse_partition",
    "formats.emit_tasks",
    "formats.parse_tasks",
    "verify.run_invariant_checks",
    "cli.partition",
    "cli.thin",
    "cli.eval",
    "cli.verify",
    "cli.import",
)

ROUTE_CLASSES = ("full_support", "partial_support", "excluded", "split_label")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric that the recorded spans determine.  A metric
    whose spans were never recorded is left out."""
    out: dict[str, float] = {}
    for name in TIMED:
        spans = tracer.named(name)
        if spans:
            out[name + "_s"] = median([s.seconds for s in spans])

    def rate(name: str):
        spans = tracer.named(name)
        return sum(s.work for s in spans), sum(s.seconds for s in spans)

    work, secs = rate("design.refine")
    if secs:
        out["design.refine.tasks_per_s"] = work / secs
    work, secs = rate("baselines.thin")
    if secs:
        out["baselines.thin.tuples_per_s"] = work / secs
    work, secs = rate("harness.monte_carlo_delta")
    if work:
        out["harness.monte_carlo_delta.trial_s"] = secs / work

    routed = tracer.named("design.assign_base_group")
    if routed:
        us = [s.seconds * 1e6 for s in routed]
        out["design.assign_base_group.p50_us"] = median(us)
        out["design.assign_base_group.p99_us"] = percentile(us, 99)
        out["design.assign_base_group.max_us"] = max(us)
        out["design.assign_base_group.calls"] = len(us)
        for cls in ROUTE_CLASSES:
            sub = [s.seconds * 1e6 for s in routed if s.tag == cls]
            out[f"design.assign_base_group.{cls}.p50_us"] = median(sub)
            out[f"design.assign_base_group.{cls}.share"] = len(sub) / len(us)

    for layer, secs in tracer.self_seconds().items():
        if secs:
            out[layer + ".self_s"] = secs
    return out
