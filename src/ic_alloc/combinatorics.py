"""Exact combinatorial primitives: binomials, lexicographic enumeration,
and ranking/unranking of d-subsets of [n].

Everything here is 1-based and exact (Python integers never overflow).
Subsets are represented as strictly increasing tuples of ints, which is
also their canonical ordering key.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import lt
from typing import Iterator

from .errors import InvalidArgument, InvalidDimensions, RankOutOfRange

DTuple = tuple[int, ...]


def binomial(n: int, k: int) -> int:
    """C(n, k), exact; 0 when k > n."""
    if n < 0 or k < 0:
        raise InvalidArgument("binomial arguments must be non-negative")
    if k > n:
        return 0
    return comb(n, k)


def validate_dtuple(t, n: int, d: int) -> DTuple:
    """Return t as a tuple after checking it is a canonical d-tuple: d >= 1
    elements of type int (bool, float and str are refused), strictly
    increasing, in [1, n]."""
    t = tuple(t)
    if not 0 < len(t) == d:
        raise InvalidDimensions(f"tuple {t} does not have d={d} >= 1 elements")
    if set(map(type, t)) != {int}:
        raise InvalidDimensions(f"elements of {t} must be ints")
    if not all(map(lt, t, t[1:])):
        raise InvalidDimensions(f"elements must be strictly increasing: {t}")
    if t[0] < 1 or t[-1] > n:
        raise InvalidDimensions(f"elements of {t} must lie in [1, {n}]")
    return t


def enumerate_lex(n: int, d: int) -> Iterator[DTuple]:
    """Yield all C(n, d) d-subsets of [1, n] in lexicographic order.

    Streams; nothing is materialized.
    """
    if d < 1 or d > n:
        raise InvalidDimensions(f"need 1 <= d <= n, got n={n}, d={d}")
    return combinations(range(1, n + 1), d)


def _range_sum(n: int, a: int, b: int, u: int) -> int:
    # sum_{v=a}^{b} C(n - v, u), empty when a > b
    if a > b:
        return 0
    return comb(n - a + 1, u + 1) - comb(n - b, u + 1)


def lex_rank(t, n: int) -> int:
    """1-based position of d-tuple t in the lexicographic enumeration of
    d-subsets of [1, n]."""
    t = tuple(t)
    return _rank(validate_dtuple(t, n, len(t)), n)


def _rank(t: DTuple, n: int) -> int:
    # lex_rank of a tuple already known to be canonical
    d = len(t)
    smaller = 0
    prev = 0
    for j, tj in enumerate(t):
        smaller += _range_sum(n, prev + 1, tj - 1, d - j - 1)
        prev = tj
    return smaller + 1


def lex_unrank(r: int, n: int, d: int) -> DTuple:
    """Inverse of lex_rank: the r-th (1-based) d-subset of [1, n]."""
    if d < 1 or d > n:
        raise InvalidDimensions(f"need 1 <= d <= n, got n={n}, d={d}")
    total = binomial(n, d)
    if r < 1 or r > total:
        raise RankOutOfRange(f"rank {r} outside [1, {total}]")
    rem = r - 1
    out = []
    x = 1
    for i in range(1, d + 1):
        c = binomial(n - x, d - i)
        while c <= rem:
            rem -= c
            x += 1
            c = binomial(n - x, d - i)
        out.append(x)
        x += 1
    return tuple(out)
