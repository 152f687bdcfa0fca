"""Counting and ranking of *covering subsets*.

The universe is a list of disjoint, ascending integer intervals
("blocks").  A covering u-subset draws u distinct elements from the
union of the blocks and contains at least one element from every block.

Two families in the partition construction reduce to this shape:

* tuples supported by exactly the families in a set I: the blocks are
  the member families;
* tuples supported by exactly I and touching the excluded tail: the same
  blocks plus the excluded interval.

All counts are exact integers; "below" refers to the lexicographic
order of the subsets as sorted tuples.

count_below walks t once, each element stepping at most one block on, and
adds the completions of the smaller candidates; per block shape and count
left these form a prefix table, shared by the layouts holding that shape,
so a range of candidates is one subtraction.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import add

Block = tuple[int, int]  # (lo, hi), inclusive bounds


def ways_by_count(widths: list[int], u: int) -> list[int]:
    """ways[x] = number of x-subsets drawn from disjoint pools of the given
    widths that take at least one element from every pool."""
    ways = [0] * (u + 1)
    ways[0] = 1
    for size in widths:
        nxt = [0] * (u + 1)
        for x, wx in enumerate(ways):
            if not wx:
                continue
            for j in range(1, min(size, u - x) + 1):
                nxt[x + j] += wx * comb(size, j)
        ways = nxt
    return ways


class PrefixTables(dict):
    """u -> the prefix table of one block shape, built on first use.  The
    block has width widths[0] and the blocks after it widths[1:]; entry m
    sums, over o < m, the u-subsets of the block's top o elements plus the
    later blocks that take at least one element from every later block:
    sum over x of ways[x] * C(m, u - x + 1), by the hockey-stick identity."""

    def __init__(self, widths: tuple[int, ...]):
        self.widths = widths

    def __missing__(self, u: int) -> list[int]:
        ways = ways_by_count(list(self.widths[1:]), u)
        m = range(self.widths[0] + 1)
        table = [0] * len(m)
        for x, w in enumerate(ways):
            if w:
                table = list(map(add, table, map(w.__mul__, map(comb, m, repeat(u - x + 1)))))
        self[u] = table
        return table


def prefix_tables(blocks: list[Block], shapes: dict) -> list[PrefixTables]:
    """Per block, the tables of its shape, shared through `shapes`."""
    widths = tuple(hi - lo + 1 for lo, hi in blocks)
    out = []
    for bi in range(len(widths)):
        shape = widths[bi:]
        if shape not in shapes:
            shapes[shape] = PrefixTables(shape)
        out.append(shapes[shape])
    return out


def count_below(
    t: tuple[int, ...], blocks: list[Block], d: int, tables: list[PrefixTables]
) -> int:
    """Number of covering d-subsets lexicographically smaller than t.

    t itself need not belong to the universe; the walk stops as soon as a
    prefix of t leaves it.  tables is prefix_tables(blocks, shapes).  One
    forward pass steps each element at most one block on, so a call costs
    O(d) lookups; the first call that needs a shape's table for some count
    builds it, width + 1 entries.
    """
    total, bi, u = 0, 0, d
    lo, hi = blocks[0]
    va, top, row = lo, hi + 1, tables[0]  # va: the least candidate left in block bi
    for tj in t[:d]:
        u -= 1
        # a candidate v covers its own block; its completions draw u elements
        # from the hi - v above it here and the later blocks
        if tj >= top:  # count the candidates left in block bi, then step once
            if va < top:
                total += row[u][top - va]
            bi += 1
            if va == lo or bi == len(blocks):
                return total  # a block left behind, or tj above them all
            lo, hi = blocks[bi]
            va, top, row = lo, hi + 1, tables[bi]
            if tj >= top:
                return total + row[u][top - lo]  # the new block left behind too
        if va < tj:
            table = row[u]
            total += table[top - va] - table[top - tj]
        elif tj < va:
            return total  # tj falls in a gap
        va = tj + 1
    return total
