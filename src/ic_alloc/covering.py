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
"""

from __future__ import annotations

from math import comb

from .combinatorics import _range_sum

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


def suffix_tables(blocks: list[Block], u: int) -> list[list[int]]:
    """For each block, ways_by_count(..., u) over the blocks after it.  Its
    prefixes serve every smaller u, and it depends only on the layout, so
    callers ranking many tuples in one universe build it once."""
    widths = [hi - lo + 1 for lo, hi in blocks]
    return [ways_by_count(widths[bi + 1 :], u) for bi in range(len(blocks))]


def count_below(
    t: tuple[int, ...], blocks: list[Block], d: int, suffix: list[list[int]]
) -> int:
    """Number of covering d-subsets lexicographically smaller than t.

    t itself need not belong to the universe; the walk stops as soon as a
    prefix of t leaves it.  Cost is polynomial in d and the number of
    blocks and independent of the block widths, so it stays cheap even
    when the blocks span millions of integers.  suffix is
    suffix_tables(blocks, d - 1).
    """
    nb = len(blocks)
    total = 0
    prev = 0
    last = -1  # block of the previous element; every block up to it is hit
    for pos, tj in enumerate(t[:d]):
        u = d - pos - 1
        # blocks before `last` lie wholly below prev and offer no candidate
        bi = max(last, 0)
        while True:
            if bi == nb:
                return total
            lo, hi = blocks[bi]
            if lo > tj:
                return total  # tj falls in a gap
            va = max(prev + 1, lo)
            vb = min(tj - 1, hi)
            if va <= vb:
                # a candidate v in this block satisfies the block's own
                # requirement; completions draw u elements from the part of
                # this block above v plus all later blocks
                for x, wx in enumerate(suffix[bi][: u + 1]):
                    if wx:
                        total += wx * _range_sum(hi, va, vb, u - x)
            if hi >= tj:
                break  # tj lies in this block
            if bi > last:
                return total  # a block left behind can never be covered
            bi += 1
        last = bi
        prev = tj
    return total
