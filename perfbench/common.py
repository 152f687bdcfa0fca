"""Pieces shared by the workloads: the failure ledger, the calibration
kernel, the time budget, statistics and resource readings."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

from ic_alloc.design import assign_base_group, support_of


class Ledger:
    """Counts attempted and failed operations and digests their semantic
    output.

    An operation fails when it raises or when any of its output checks is
    false; each false check is also counted by name.  Only a fixed prefix
    of the operations is digested, so the digest does not depend on how
    many operations fit into the time budget.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failed_checks: Counter[str] = Counter()
        self._digest = hashlib.sha256()
        self.digested = 0

    def attempt(self, op, *args):
        """Run ``op(*args)``, which returns ``(result, checks)``; return the
        result, or None when the operation failed.  The operation's spans
        carry its 1-based index as their op id."""
        self.attempted += 1
        self.tracer.op = self.attempted
        try:
            result, checks = op(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.failed_checks["exception"] += 1
            return None
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failed_checks.update(bad)
            print(f"failed checks: {bad}", file=sys.stderr)
            return None
        return result

    def digest(self, label: str, value) -> None:
        self.digested += 1
        self._digest.update(label.encode() + b"\0")
        self._digest.update(json.dumps(value, sort_keys=True).encode() + b"\n")

    @property
    def hexdigest(self) -> str:
        return self._digest.hexdigest()


CALIBRATION_TUPLES = 10_000
# What one run of the calibration kernel takes on a quiet machine: about
# its fastest run on the 2-core Xeon VM (Python 3.11) where the benchmark
# was written.  It only sets the scale of the scaled times.
CALIBRATION_S = 0.010


def _calibration_kernel() -> int:
    rng = random.Random(0)
    xs = [(rng.randrange(1000), i, i + 1) for i in range(CALIBRATION_TUPLES)]
    xs.sort()
    index = {t: i for i, t in enumerate(xs)}
    return len(index)


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now.

    On a shared host the same code can run up to twice as slow for
    seconds or minutes at a time, CPU time included, so the times of one
    run follow the host's load as much as the program.  The kernel
    allocates, sorts and hashes small tuples, as ic_alloc does, so its
    time rises and falls with that of the operations around it.  It runs
    with the collector off, so that its time does not hang on how many
    objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _calibration_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled_median(timed) -> float:
    """Median over ``(seconds, calibration seconds)`` pairs of an
    operation's time at calibration speed: seconds * CALIBRATION_S /
    calibration seconds, where the calibration ran just before the
    operation.  0.0 for no pairs."""
    return median([s * CALIBRATION_S / c for s, c in timed])


def budget(seconds: float, minimum: int):
    """Yield 0, 1, 2, ... until ``seconds`` of wall time have passed and at
    least ``minimum`` indices have been yielded."""
    end = perf_counter() + seconds
    i = 0
    while i < minimum or perf_counter() < end:
        yield i
        i += 1


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def seed_stream(seed: int, purpose: str) -> random.Random:
    """An independent generator for one purpose, fixed by the run seed."""
    return random.Random(f"{purpose}:{seed}")


def route_class(t, group: int, params) -> str:
    """Routing class of tuple t, which assign_base_group sent to ``group``.

    The classes are exclusive.  ``split_label`` comes first: a label split
    into several groups makes the router also compute the label's size and
    the tuple's rank in it.  The others follow the tuple's support:
    ``excluded`` touches the excluded tail, ``full_support`` touches d
    distinct families, ``partial_support`` fewer.
    """
    b0 = (group - 1) % params.N_prime + 1
    if (params.p if b0 <= params.r else params.q) > 1:
        return "split_label"
    info = support_of(t, params)
    if info.excluded_count:
        return "excluded"
    return "full_support" if info.beta == params.d else "partial_support"


def route_traced(t, params, tracer) -> int:
    """assign_base_group for one tuple inside its own span, tagged with the
    tuple's routing class.  Needs an enabled tracer."""
    with tracer.span("design.assign_base_group") as rec:
        group = assign_base_group(t, params)
    rec.tag = route_class(t, group, params)
    return group


def group_digest(groups) -> list[str]:
    """Per group, a hash of its edges in order: the group index of every
    task, independent of the partition's storage format."""
    return [
        hashlib.sha256(",".join(" ".join(map(str, t)) for t in g).encode()).hexdigest()[:16]
        for g in groups
    ]
