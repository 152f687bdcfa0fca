"""Reference partitioners and the seeded thinning generator.

The pseudorandom source is splitmix64: the decision for the tuple of
lexicographic rank L under seed S hashes S + L * GOLDEN through the
splitmix64 finalizer.  Decisions therefore depend only on (seed, rank),
never on visit order, so streaming and parallel generation agree
bit-for-bit on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import _rank, binomial, enumerate_lex
from .counting import block_bounds
from .design import FinalPartition, _own_placement
from .errors import InvalidPhi
from .tasks import TaskSet

GENERATOR_ID = "splitmix64-v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def tuple_draw(seed: int, rank: int) -> int:
    """64-bit draw for the tuple at the given 1-based lexicographic rank."""
    return mix64((seed + rank * _GOLDEN) & _MASK)


@dataclass(frozen=True)
class ThinningSpec:
    """Sampling probability, seed, and the generator that interprets them.

    Identical (phi, seed, generator_id, n, d) reproduce the identical task
    set bit-for-bit.
    """

    phi: float
    seed: int
    generator_id: str = GENERATOR_ID

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise InvalidPhi(f"phi must lie in [0, 1], got {self.phi}")
        if self.generator_id != GENERATOR_ID:
            raise ValueError(f"unknown generator_id {self.generator_id!r}")


def thin(n: int, d: int, spec: ThinningSpec) -> TaskSet:
    """Keep each tuple of the complete d-uniform set independently with
    probability phi.  phi=1 keeps everything, phi=0 nothing."""
    threshold = min(1 << 64, int(spec.phi * (1 << 64)))
    kept = [
        t
        for rank, t in enumerate(enumerate_lex(n, d), start=1)
        if tuple_draw(spec.seed, rank) < threshold
    ]
    return TaskSet(
        n, d, tuple(kept), phi=spec.phi, seed=spec.seed, generator_id=spec.generator_id
    )


def lex_partition(tasks: TaskSet, N: int) -> FinalPartition:
    """Contiguous lexicographic split of X into N blocks, larger blocks
    first.  The obvious baseline the construction is measured against."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    edges = tasks.edges  # already lexicographically sorted
    groups = []
    for j in range(1, N + 1):
        start, end = block_bounds(len(edges), N, j)
        groups.append(edges[start - 1 : end])
    return _own_placement(tasks.n, tasks.d, tuple(groups), {"baseline": "lex"})


def random_partition(tasks: TaskSet, N: int, seed: int) -> FinalPartition:
    """Place every edge uniformly at random among the N groups,
    deterministically from (seed, edge rank)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    groups: list[list] = [[] for _ in range(N)]
    for t in tasks.edges:  # canonical by the TaskSet contract; not validated again
        groups[(tuple_draw(seed, _rank(t, tasks.n)) * N) >> 64].append(t)
    return _own_placement(
        tasks.n,
        tasks.d,
        tuple(tuple(g) for g in groups),
        {"baseline": "random", "seed": seed, "generator_id": GENERATOR_ID},
    )


def expected_thinned_size(n: int, d: int, phi: float) -> tuple[float, float]:
    """Mean and standard deviation of |X| under thinning."""
    m = binomial(n, d)
    return m * phi, math.sqrt(m * phi * (1.0 - phi))
