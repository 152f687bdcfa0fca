"""Reference partitioners and the seeded thinning generator.

The pseudorandom source is splitmix64: the decision for the tuple of
lexicographic rank L under seed S hashes S + L * GOLDEN through the
splitmix64 finalizer.  Decisions therefore depend only on (seed, rank),
never on visit order, so streaming and parallel generation agree
bit-for-bit on every platform.

tuple_draw is the per-rank definition.  _keep_flags evaluates it on _LANES
consecutive ranks at once, inside one Python int that holds one 128-bit
lane per rank ("SIMD within a register"), so each step of the finalizer is
a single whole-int +, ^, >>, * or & run in C.  Every step starts from lanes
below 2**64.  Nothing subtracts, so no lane borrows, and none carries:
- a sum of two such values is below 2**65, a product with a 64-bit
  constant below 2**128; the mask after either keeps the low 64 bits;
- a right shift moves the low bits of lane i+1 into the top of lane i; the
  mask clears them, but for the last shift, which leaves them at bit 97 up;
- the keep test adds 2**64 - threshold to each draw: the sum is below
  2**65, so it never reaches bit 97, and it carries into bit 64 exactly
  when the draw is at least the threshold (the rank is dropped).
Sixteen packed ints share one to_bytes: the c-th xors its bit-64 flags into
byte c of their lanes, all 1 at first, by a shift right of at most 64 or
left of at most 56, so no flag leaves its lane or meets another's byte.
"""

from __future__ import annotations

from itertools import compress

from .combinatorics import _rank, as_text, binomial, enumerate_lex
from .counting import block_slices
from .design import DEFAULT_MATERIALIZE_CAP, Partition, _own_placement
from .errors import InstanceTooLarge, InvalidArgument, InvalidPhi
from .records import Record
from .tasks import GENERATOR_ID, TaskSet, _complete, _Kept

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
_STEP = _ONES * ((_LANES * _GOLDEN) & _MASK)  # from one packed int's ranks to the next's
_CARRY = _ONES << 64  # bit 64 of every lane
_SLOT_ONES = int.from_bytes(b"\1" * (_LANES * _LANE_BYTES), "little")  # 1 in every byte


def _keep_flags(seed: int, threshold: int, count: int) -> bytes:
    """One byte per rank from 1 to count rounded up to _LANES: 1 when
    tuple_draw(seed, rank) < threshold, else 0."""
    packs, above = -(-count // _LANES), _ONES * ((1 << 64) - threshold)
    start = (_STRIDE + _ONES * ((seed + _GOLDEN) & _MASK)) & _LANE_MASK
    out = []
    for first in range(0, packs, _LANE_BYTES):
        slots, keep = min(_LANE_BYTES, packs - first), _SLOT_ONES
        for c in range(slots):
            x, start = start, (start + _STEP) & _LANE_MASK
            x ^= (x >> 30) & _LANE_MASK
            x = (x * _MUL1) & _LANE_MASK
            x ^= (x >> 27) & _LANE_MASK
            x = (x * _MUL2) & _LANE_MASK
            x = (x ^ (x >> 31)) + above & _CARRY  # the dropped ranks' carries
            keep ^= x >> (64 - 8 * c) if c < 8 else x << (8 * c - 64)
        b = keep.to_bytes(_LANES * _LANE_BYTES, "little")
        out += [b[c::_LANE_BYTES] for c in range(slots)]
    return b"".join(out)


class ThinningSpec(Record):
    """Sampling probability and seed.  Identical (phi, seed, n, d) reproduce
    the identical task set bit-for-bit under GENERATOR_ID."""

    phi: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise InvalidPhi(f"phi must lie in [0, 1], got {self.phi}")


def thin(n: int, d: int, spec: ThinningSpec) -> TaskSet:
    """Keep each tuple of the complete d-uniform set independently with probability phi.
    phi=1 keeps everything, phi=0 nothing.  X holds the keep byte of every rank in its slot
    `keep` (see TaskSet).  Beside a live complete set of (n, d) (a construction's cache entry
    holds one), X's edges select its tuple objects: a _Kept, whose len counts the keep bytes
    and which iterating, indexing, comparing, hashing, adding, printing or pickling makes into
    a tuple.  Otherwise X enumerates equal tuples anew."""
    total, budget = binomial(n, d), 73 * DEFAULT_MATERIALIZE_CAP  # the cap's tuples at 73 B each
    num, den = spec.phi.as_integer_ratio()  # exact, as a float of C(n, d) may overflow
    if total + (held := 72 * total * num // den) > budget:  # about 72 B a kept tuple
        raise InstanceTooLarge(f"thin({n}, {d}) at phi = {spec.phi} needs {as_text(total)} keep "
                               f"bytes and about {as_text(held)} bytes of kept tuples, over "
                               f"{budget} bytes")
    threshold = min(1 << 64, int(spec.phi * (1 << 64)))
    keep = _keep_flags(spec.seed, threshold, total)
    full = _complete.get((n, d))  # without it, X is listed first, as TaskSet.full lists its set
    edges = _Kept(full.edges, keep) if full else tuple(list(compress(enumerate_lex(n, d), keep)))
    x = TaskSet(n, d, edges, phi=spec.phi, seed=spec.seed, generator_id=GENERATOR_ID)
    object.__setattr__(x, "keep", keep)
    return x


def lex_partition(tasks: TaskSet, N: int) -> Partition:
    """Contiguous lexicographic split of X into N blocks, larger blocks
    first.  The obvious baseline the construction is measured against."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    if N > DEFAULT_MATERIALIZE_CAP:  # refused before a group is allocated
        raise InstanceTooLarge(f"N = {N} groups exceeds the cap {DEFAULT_MATERIALIZE_CAP}")
    groups = tuple(block_slices(tasks.edges, N))  # the edges are lexicographically sorted
    return _own_placement(tasks.n, tasks.d, groups, {"baseline": "lex"})


def random_partition(tasks: TaskSet, N: int, seed: int) -> Partition:
    """Place every edge uniformly at random among the N groups,
    deterministically from (seed, edge rank)."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    if N > DEFAULT_MATERIALIZE_CAP:  # refused before a group is allocated
        raise InstanceTooLarge(f"N = {N} groups exceeds the cap {DEFAULT_MATERIALIZE_CAP}")
    groups: list[list] = [[] for _ in range(N)]
    for t in tasks.edges:  # canonical by the TaskSet contract; not validated again
        groups[(tuple_draw(seed, _rank(t, tasks.n)) * N) >> 64].append(t)
    return _own_placement(
        tasks.n,
        tasks.d,
        tuple(tuple(g) for g in groups),
        {"baseline": "random", "seed": seed, "generator_id": GENERATOR_ID},
    )
