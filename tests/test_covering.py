"""The covering-subset engine against brute-force enumeration."""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from ic_alloc.covering import count_below, prefix_tables


def brute_covering(blocks, u):
    universe = [x for lo, hi in blocks for x in range(lo, hi + 1)]
    required = [set(range(lo, hi + 1)) for lo, hi in blocks]
    out = []
    for c in combinations(universe, u):
        cs = set(c)
        if all(cs & r for r in required):
            out.append(c)
    return out  # combinations of a sorted universe come out in lex order


@st.composite
def block_layouts(draw):
    n_blocks = draw(st.integers(1, 4))
    blocks = []
    lo = 1
    for _ in range(n_blocks):
        lo += draw(st.integers(0, 2))  # optional gap
        width = draw(st.integers(1, 4))
        blocks.append((lo, lo + width - 1))
        lo += width
    return blocks


@settings(max_examples=200, deadline=None)
@given(block_layouts(), st.integers(1, 6))
def test_count_and_order_match_bruteforce(blocks, u):
    expected = brute_covering(blocks, u)
    tables = prefix_tables(blocks, {})
    for i, t in enumerate(expected, start=1):
        assert count_below(t, blocks, u, tables) == i - 1


@settings(max_examples=100, deadline=None)
@given(block_layouts(), st.integers(1, 5), st.data())
def test_count_below_for_foreign_tuples(blocks, u, data):
    # t drawn from a wider universe, not necessarily inside the blocks
    top = max(hi for _, hi in blocks) + max(2, u)
    t = tuple(sorted(data.draw(
        st.sets(st.integers(1, top), min_size=u, max_size=u)
    )))
    expected = sum(1 for c in brute_covering(blocks, u) if c < t)
    assert count_below(t, blocks, u, prefix_tables(blocks, {})) == expected


def test_count_below_matches_bruteforce_on_every_small_layout():
    """Every layout of 1-3 blocks of widths 1-3, each after a gap of 0 or 1,
    every u in 1..5 and every u-subset t of [1, last hi + 2], foreign tuples
    included (147,011 cases): count_below(t) is the number of covering subsets
    before t in the lex order of all u-subsets, and an element after the
    u-th changes nothing."""
    cases = 0
    for nb in range(1, 4):
        for widths, gaps in product(product(range(1, 4), repeat=nb), product(range(2), repeat=nb)):
            blocks, lo = [], 1
            for width, gap in zip(widths, gaps):
                blocks.append((lo + gap, lo + gap + width - 1))
                lo += gap + width
            tables, top = prefix_tables(blocks, {}), blocks[-1][1] + 2
            for u in range(1, 6):
                covering, below = set(brute_covering(blocks, u)), 0
                for t in combinations(range(1, top + 1), u):
                    assert count_below(t, blocks, u, tables) == below, (blocks, t)
                    assert count_below(t + (top + 1,), blocks, u, tables) == below
                    below += t in covering
                    cases += 1
    assert cases == 147_011
