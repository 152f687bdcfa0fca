"""Exact combinatorial primitives: binomials, lexicographic enumeration,
and ranking/unranking of d-subsets of [n].

Everything here is 1-based and exact (Python integers never overflow).
Subsets are represented as strictly increasing tuples of ints, which is
also their canonical ordering key.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, combinations, islice
from math import comb, log10
from operator import lt
from typing import Iterator, Sequence

from .errors import InvalidArgument, InvalidDimensions, RankOutOfRange

DTuple = tuple[int, ...]


def binomial(n: int, k: int) -> int:
    """C(n, k), exact; 0 when k > n."""
    if n < 0 or k < 0:
        raise InvalidArgument("binomial arguments must be non-negative")
    return comb(n, k)


def as_text(x: int) -> str:
    """x in decimal or, past Python's int-to-text limit (4,300 digits by default), as its
    first two digits, cut rather than rounded, times a power of ten: C(10^7, 1000) is 2.3e4432."""
    try:
        return str(x)
    except ValueError:
        a = abs(x)
        e = int(log10(a))  # a float, so one off where a is within 1e-12 of a power of ten
        e += (a >= 10 ** (e + 1)) - (a < 10 ** e)
        lead = a // 10 ** (e - 1)
        return f"{'-' * (x < 0)}{lead // 10}.{lead % 10}e{e}"


def validate_dtuple(t, n: int, d: int | None = None) -> DTuple:
    """Return t as a tuple after checking it is a canonical d-tuple: d >= 1
    elements (any number when d is None) of type int (bool, float and str are
    refused), strictly increasing, in [1, n]."""
    try:
        t = tuple(t)
    except TypeError:
        want = "ints" if d is None else f"d={d} ints"
        raise InvalidDimensions(f"tuple {t!r} is not a sequence of {want}") from None
    d = len(t) if d is None else d
    if not 0 < len(t) == d:
        raise InvalidDimensions(f"tuple {t} does not have d={d} >= 1 elements")
    if set(map(type, t)) != {int}:
        raise InvalidDimensions(f"elements of {t} must be ints")
    if not all(map(lt, t, t[1:])):
        raise InvalidDimensions(f"elements must be strictly increasing: {t}")
    if t[0] < 1 or t[-1] > n:
        raise InvalidDimensions(f"elements of {t} must lie in [1, {n}]")
    return t


def validate_dtuples(edges, n: int, d: int) -> list[DTuple]:
    """validate_dtuple over a batch by C-level calls over its columns; a batch that
    fails is checked again edge by edge, which raises the first bad edge's own error."""
    edges, ts = list(edges), []
    with suppress(TypeError):  # at a non-iterable edge; ts keeps the edges before it
        ts.extend(map(tuple, edges))
    cols = list(zip(*ts))
    if (len(ts) == len(edges) and set(map(len, ts)) == {d}  # d = 0 fails the int check
            and set(map(type, chain.from_iterable(cols))) == {int} and min(cols[0]) >= 1
            and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])) and max(cols[-1]) <= n):
        return ts
    return [validate_dtuple(t, n, d) for t in chain(ts, islice(edges, len(ts), None))]


def enumerate_lex(n: int, d: int) -> Iterator[DTuple]:
    """Yield all C(n, d) d-subsets of [1, n] in lexicographic order.

    Streams; nothing is materialized.
    """
    if d < 1 or d > n:
        raise InvalidDimensions(f"need 1 <= d <= n, got n={n}, d={d}")
    return combinations(range(1, n + 1), d)


def lex_rank(t, n: int) -> int:
    """1-based position of d-tuple t in the lexicographic enumeration of
    d-subsets of [1, n]."""
    return _rank(validate_dtuple(t, n), n)


def _rank(t: Sequence[int], n: int) -> int:
    # lex_rank of a canonical tuple (or list): C(n, d) less the C(n - t_i, d - i) (i from 0) above t
    d = len(t)
    return comb(n, d) - sum(comb(n - x, d - i) for i, x in enumerate(t))


def lex_unrank(r: int, n: int, d: int) -> DTuple:
    """Inverse of lex_rank: the r-th (1-based) d-subset of [1, n]."""
    if d < 1 or d > n:
        raise InvalidDimensions(f"need 1 <= d <= n, got n={n}, d={d}")
    total = binomial(n, d)
    if r < 1 or r > total:
        raise RankOutOfRange(f"rank {as_text(r)} outside [1, {as_text(total)}]")
    # _rank backwards: total - r = sum_i C(n - t_i, d - i), each t_i the least that still fits
    out, rem, x = [], total - r, 0
    for i in range(d):
        x += 1
        while (c := comb(n - x, d - i)) > rem:
            x += 1
        rem -= c
        out.append(x)
    return tuple(out)
