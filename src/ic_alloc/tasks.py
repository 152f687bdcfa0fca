"""Task sets: a hypergraph of d-uniform edges over [1, n] in canonical
lexicographic order, plus the sampling metadata that produced it."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, islice
from operator import add, contains, eq, ge, getitem, gt, le, lt, mul
from typing import Iterable
from weakref import WeakValueDictionary

from .combinatorics import DTuple, enumerate_lex, validate_dtuples
from .errors import DuplicateEdge, InvalidDimensions
from .records import Record

GENERATOR_ID = "splitmix64-v1"  # the thinning generator, named by each X it draws
_complete = WeakValueDictionary()  # (n, d) -> the complete set, while anything holds it


class TaskSet(Record):
    """An edge set X over n files, every edge a strictly increasing
    d-tuple, stored sorted lexicographically with no duplicates.

    The constructor checks only 1 <= d <= n and takes the edges as given: callers holding
    edges in that canonical form (thin, full, parse_tasks) build it directly.  Edges from
    anywhere else go through from_edges, which validates them.

    phi / seed / generator_id record how X was sampled, when it was.  An X from thin holds
    in the slot `keep`, no field, its keep bytes: keep[r - 1] is truthy iff rank r is an
    edge (see refine); a copy or unpickled X has none.  Beside a live complete set, its
    edges are a _Kept of that set's tuples, which len counts and reading makes (see _Kept).
    """

    __slots__ = ("keep",)

    n: int
    d: int
    edges: tuple[DTuple, ...]
    phi: float | None = None
    seed: int | None = None
    generator_id: str | None = None

    def __post_init__(self):
        if self.d < 1 or self.d > self.n:
            raise InvalidDimensions(f"need 1 <= d <= n, got n={self.n}, d={self.d}")

    def __len__(self) -> int:
        return len(self.edges)

    def __getstate__(self):
        return self.__dict__  # the fields alone: Record.__setattr__ would refuse the keep slot

    @staticmethod
    def from_edges(n: int, d: int, edges: Iterable[Iterable[int]]) -> "TaskSet":
        """Canonicalize arbitrary edge input: validate every edge as a strictly
        increasing d-tuple over [1, n] (as one batch), sort, reject dupes."""
        return TaskSet(n, d, tuple(refuse_duplicates(validate_dtuples(edges, n, d))))

    @staticmethod
    def full(n: int, d: int) -> "TaskSet":
        """The complete d-uniform task set on [1, n]: the one still alive (a
        construction's cache entry holds its own), else a new one."""
        full = _complete.get((n, d))
        if full is None:  # listed first: every collection walks a tuple growing from an iterator
            full = _complete[n, d] = TaskSet(n, d, tuple(list(enumerate_lex(n, d))), phi=1.0)
        return full


class _Kept(Sequence):
    """The elements of the tuple `base` whose byte in `keep` is 1, not 0 (thin's X, refine's
    groups), as that tuple; len counts base's keep bytes alone (thin pads them).  Iterating,
    indexing, in, comparing, hash, + or * either side, repr or pickle make the tuple once, in
    place of both.  As no tuple subclass, json.dumps refuses it: use emit_partition or tuple(g)."""

    __slots__ = ("base", "keep", "_len")

    def __init__(self, base: tuple, keep: bytes):  # a 1 byte is a set bit: faster than bytes.count
        self.base, self.keep = base, keep
        self._len = int.from_bytes(memoryview(keep)[:len(base)], "little").bit_count()

    def made(self) -> tuple:
        if self.keep is not None:
            self.base, self.keep = tuple(compress(self.base, self.keep)), None
        return self.base

    __len__ = lambda self: self._len
    (__iter__, __getitem__, __contains__, __eq__, __lt__, __le__, __gt__, __ge__, __hash__,
     __add__, __mul__, __rmul__, __repr__) = ((lambda op: lambda self, *o: op(self.made(), *o))(op)
        for op in (iter, getitem, contains, eq, lt, le, gt, ge, hash, add, mul, mul, repr))
    __radd__ = lambda self, other: other + self.made()
    __reduce__ = lambda self: (tuple, (self.made(),))


def refuse_duplicates(edges: list[DTuple]) -> list[DTuple]:
    """Sort edges in place and return them; raise DuplicateEdge at the first one listed twice."""
    edges.sort()
    for dup in compress(edges, map(eq, edges, islice(edges, 1, None))):
        raise DuplicateEdge(f"edge {dup} listed twice")
    return edges

