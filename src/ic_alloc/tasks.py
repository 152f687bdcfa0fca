"""Task sets: a hypergraph of d-uniform edges over [1, n] in canonical
lexicographic order, plus the sampling metadata that produced it."""

from __future__ import annotations

from itertools import compress, islice
from operator import eq
from typing import Iterable
from weakref import WeakValueDictionary, ref

from .combinatorics import DTuple, enumerate_lex, validate_dtuples
from .errors import DuplicateEdge, InvalidDimensions
from .records import Record

GENERATOR_ID = "splitmix64-v1"  # the thinning generator, named by each X it draws
_complete = WeakValueDictionary()  # (n, d) -> the complete set, while anything holds it


class TaskSet(Record):
    """An edge set X over n files, every edge a strictly increasing
    d-tuple, stored sorted lexicographically with no duplicates.

    The constructor checks only 1 <= d <= n and takes the edges as given:
    callers holding edges in that canonical form (thin, full, parse_tasks)
    build it directly.  Edges from anywhere else go through from_edges,
    which validates them.

    phi / seed / generator_id record how X was sampled, when it was.
    """

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


def refuse_duplicates(edges: list[DTuple]) -> list[DTuple]:
    """Sort edges in place and return them; raise DuplicateEdge at the first one listed twice."""
    edges.sort()
    for dup in compress(edges, map(eq, edges, islice(edges, 1, None))):
        raise DuplicateEdge(f"edge {dup} listed twice")
    return edges


_kept: list = [lambda: None, None]  # a weak reference to the latest thinned X, and its keep bytes


def remember_kept(tasks: TaskSet, keep: bytes) -> TaskSet:
    """Remember, until tasks is freed or another X is remembered, that keep[r - 1]
    is truthy iff rank r is an edge of tasks; return tasks."""
    _kept[:] = ref(tasks, _forget), keep
    return tasks


def _forget(owner: ref) -> None:
    if _kept[0] is owner:  # not since replaced by a later X
        _kept[1] = None


def kept_ranks(tasks: TaskSet) -> bytes | None:
    """The keep bytes remembered for this very TaskSet, else None."""
    return _kept[1] if _kept[0]() is tasks else None
