"""The covering-subset engine against brute-force enumeration."""

from itertools import combinations

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
