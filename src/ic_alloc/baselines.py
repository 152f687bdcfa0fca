"""Reference partitioners and the seeded thinning generator.

The pseudorandom source is splitmix64: the decision for the tuple of
lexicographic rank L under seed S hashes S + L * GOLDEN through the
splitmix64 finalizer.  Decisions therefore depend only on (seed, rank),
never on visit order, so streaming and parallel generation agree
bit-for-bit on every platform.

tuple_draw is the per-rank definition.  thin evaluates the same function
on _LANES consecutive ranks at once, inside one Python int that holds
one 128-bit lane per rank ("SIMD within a register"), so each step of the
finalizer is a single whole-int ^, >>, * or & run in C.  Every lane holds
a value below 2**64 between steps, so no lane spills into its neighbour:
- a 64-bit value times a 64-bit constant is below 2**128, so a product
  never carries out of its lane; the mask after it keeps the low 64 bits;
- a right shift moves the low bits of lane i+1 into the top of lane i,
  and the mask applied to the shifted int clears them before the xor;
- the test draw < threshold subtracts each draw from 2**64 + threshold - 1
  in its own lane.  That difference lies in [0, 2**65), so it never
  borrows from the next lane, and its bit 64 is set exactly when the draw
  is below the threshold (never for threshold 0, always for 2**64).
"""

from __future__ import annotations

from itertools import compress

from .combinatorics import _rank, binomial, enumerate_lex
from .counting import block_slices
from .design import Partition, _own_placement
from .errors import InvalidArgument, InvalidPhi
from .records import Record
from .tasks import GENERATOR_ID, TaskSet, _complete

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return x ^ (x >> 31)


def tuple_draw(seed: int, rank: int) -> int:
    """64-bit draw for the tuple at the given 1-based lexicographic rank."""
    return mix64((seed + rank * _GOLDEN) & _MASK)


_LANES = 1024  # ranks per packed int
_LANE_BYTES = 16  # 128-bit lanes: room for a 64-bit value times a 64-bit constant


def _pack(values) -> int:
    """One int holding each value in its own lane, the first value lowest."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little") for v in values), "little")


_ONES = _pack([1] * _LANES)
_LANE_MASK = _ONES * _MASK
_STRIDE = _pack([(i * _GOLDEN) & _MASK for i in range(_LANES)])


def _keep_flags(seed: int, threshold: int, count: int):
    """Yield, _LANES ranks at a time, one byte per rank from 1 to at least
    count: 1 when tuple_draw(seed, rank) < threshold, else 0."""
    below = _ONES * ((1 << 64) + threshold - 1)
    for first in range(1, count + 1, _LANES):
        x = (_STRIDE + _ONES * ((seed + first * _GOLDEN) & _MASK)) & _LANE_MASK
        x ^= (x >> 30) & _LANE_MASK
        x = (x * _MUL1) & _LANE_MASK
        x ^= (x >> 27) & _LANE_MASK
        x = (x * _MUL2) & _LANE_MASK
        x ^= (x >> 31) & _LANE_MASK
        yield (below - x).to_bytes(_LANES * _LANE_BYTES, "little")[8::_LANE_BYTES]


class ThinningSpec(Record):
    """Sampling probability and seed.  Identical (phi, seed, n, d) reproduce
    the identical task set bit-for-bit under GENERATOR_ID."""

    phi: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise InvalidPhi(f"phi must lie in [0, 1], got {self.phi}")


def thin(n: int, d: int, spec: ThinningSpec) -> TaskSet:
    """Keep each tuple of the complete d-uniform set independently with
    probability phi.  phi=1 keeps everything, phi=0 nothing.  X holds the
    keep byte of every rank in its slot `keep` (see TaskSet).  Beside a live
    complete set of (n, d) (a construction's cache entry holds one), X
    selects its tuple objects; otherwise X enumerates equal tuples anew."""
    threshold = min(1 << 64, int(spec.phi * (1 << 64)))
    keep = b"".join(_keep_flags(spec.seed, threshold, binomial(n, d)))
    full = _complete.get((n, d))
    kept = compress(enumerate_lex(n, d) if full is None else full.edges, keep)
    x = TaskSet(  # a streamed X is listed first, as TaskSet.full lists its set
        n, d, tuple(list(kept) if full is None else kept),
        phi=spec.phi, seed=spec.seed, generator_id=GENERATOR_ID,
    )
    object.__setattr__(x, "keep", keep)
    return x


def lex_partition(tasks: TaskSet, N: int) -> Partition:
    """Contiguous lexicographic split of X into N blocks, larger blocks
    first.  The obvious baseline the construction is measured against."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    groups = tuple(block_slices(tasks.edges, N))  # the edges are lexicographically sorted
    return _own_placement(tasks.n, tasks.d, groups, {"baseline": "lex"})


def random_partition(tasks: TaskSet, N: int, seed: int) -> Partition:
    """Place every edge uniformly at random among the N groups,
    deterministically from (seed, edge rank)."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    groups: list[list] = [[] for _ in range(N)]
    for t in tasks.edges:  # canonical by the TaskSet contract; not validated again
        groups[(tuple_draw(seed, _rank(t, tasks.n)) * N) >> 64].append(t)
    return _own_placement(
        tasks.n,
        tasks.d,
        tuple(tuple(g) for g in groups),
        {"baseline": "random", "seed": seed, "generator_id": GENERATOR_ID},
    )
