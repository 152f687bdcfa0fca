import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ic_alloc.combinatorics import (
    as_text,
    binomial,
    enumerate_lex,
    lex_rank,
    lex_unrank,
    validate_dtuple,
)
from ic_alloc.design import assign_base_group, derive_parameters, partition_from_groups
from ic_alloc.errors import InvalidDimensions, RankOutOfRange
from ic_alloc.tasks import TaskSet


def factorial_binomial(n, k):
    # independent oracle
    if k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


@pytest.mark.parametrize(
    "n,k,expected",
    [(6, 2, 15), (5, 0, 1), (200, 2, 19900), (10, 11, 0), (0, 0, 1)],
)
def test_binomial_goldens(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_against_factorial_oracle():
    for n in range(0, 40):
        for k in range(0, n + 2):
            assert binomial(n, k) == factorial_binomial(n, k)


def test_binomial_large_exact():
    # stays exact far past 64-bit range
    assert binomial(10**4, 8) == factorial_binomial(10**4, 8)
    assert binomial(10**4, 8) > 2**64


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_enumerate_lex_goldens():
    assert list(enumerate_lex(4, 2)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert list(enumerate_lex(3, 3)) == [(1, 2, 3)]
    six_two = list(enumerate_lex(6, 2))
    assert len(six_two) == 15
    assert six_two[0] == (1, 2) and six_two[-1] == (5, 6)


@pytest.mark.parametrize("n,d", [(4, 0), (4, 5), (0, 1)])
def test_enumerate_lex_invalid(n, d):
    with pytest.raises(InvalidDimensions):
        enumerate_lex(n, d)


def test_enumeration_count_matches_binomial():
    for n in range(1, 15):
        for d in range(1, n + 1):
            assert sum(1 for _ in enumerate_lex(n, d)) == binomial(n, d)


def test_enumeration_strictly_increasing():
    for n, d in [(8, 3), (10, 2), (7, 5)]:
        seq = list(enumerate_lex(n, d))
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_lex_rank_goldens():
    assert lex_rank((1, 2), 6) == 1
    assert lex_rank((5, 6), 6) == 15
    assert lex_unrank(7, 6, 2) == (2, 4)


def test_rank_matches_enumeration_order():
    # exhaustive where small, boundary plus sampled ranks where large
    for n in range(1, 41):
        for d in range(1, min(n, 4) + 1):
            total = binomial(n, d)
            if total <= 3000:
                for i, t in enumerate(enumerate_lex(n, d), start=1):
                    assert lex_rank(t, n) == i
                    assert lex_unrank(i, n, d) == t
            else:
                step = total // 97
                for r in {1, 2, total - 1, total, *range(1, total + 1, step)}:
                    assert lex_rank(lex_unrank(r, n, d), n) == r


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_round_trip_property(n, d, data):
    d = min(d, n)
    r = data.draw(st.integers(1, binomial(n, d)))
    t = lex_unrank(r, n, d)
    assert validate_dtuple(t, n, d) == t
    assert len(t) == d
    assert lex_rank(t, n) == r


def test_unrank_out_of_range():
    with pytest.raises(RankOutOfRange):
        lex_unrank(0, 6, 2)
    with pytest.raises(RankOutOfRange):
        lex_unrank(16, 6, 2)
    # C(10^7, 1000) has 4,433 digits, too many for str(); the message states it all the same
    with pytest.raises(RankOutOfRange, match=r"outside \[1, 2\.3e4432\]"):
        lex_unrank(0, 10**7, 1000)


def test_as_text_states_a_count_past_the_digit_limit():
    assert [as_text(x) for x in (7, -74, 10**4400, 10**4400 - 1, 10**4400 + 1)] == [
        "7", "-74", "1.0e4400", "9.9e4399", "1.0e4400"]
    assert as_text(-(19 * 10**4500 + 9)) == "-1.9e4501"


def test_validate_dtuple_rejects_bad_tuples():
    # (tuple, d) at n = 6: order, range, length, and element types that
    # int() would have converted
    rows = [
        ((3, 1), 2), ((1, 1), 2), ((0, 2), 2), ((2, 7), 2),
        ((1, 2, 3), 2), ((4,), 2), ((), 0), ((), 2),
        ((1.9, 2), 2), ((1, "2"), 2), ((True, 3), 2), ((1.0, 2.0), 2),
    ]
    for t, d in rows:
        with pytest.raises(InvalidDimensions):
            validate_dtuple(t, 6, d)


# every entry point that takes a caller's tuples refuses them the same way
ENTRY_POINTS = {
    "from_edges": lambda: TaskSet.from_edges(6, 2, [(1.9, "2"), (True, 3)]),
    "assign_base_group": lambda: assign_base_group((1.5, 2.7), derive_parameters(64, 2, 10)),
    "lex_rank": lambda: lex_rank((1.2, 2), 6),
    "lex_rank_not_iterable": lambda: lex_rank(3, 6),
    "partition_from_groups": lambda: partition_from_groups(6, 2, [[(1, 2, 3)], [(4,)]]),
}


@pytest.mark.parametrize("case", list(ENTRY_POINTS))
def test_entry_points_refuse_tuples_that_are_not_canonical(case):
    with pytest.raises(InvalidDimensions):
        ENTRY_POINTS[case]()


# an edge or tuple that is not iterable at all is refused the same way
NOT_ITERABLE = {
    "from_edges": lambda: TaskSet.from_edges(5, 2, [(1, 2), 3]),
    "partition_from_groups": lambda: partition_from_groups(5, 2, [[(1, 2)], [7]]),
    "assign_base_group": lambda: assign_base_group(3, derive_parameters(6, 2, 3)),
}


@pytest.mark.parametrize("case", list(NOT_ITERABLE))
def test_entry_points_refuse_a_tuple_that_is_not_iterable(case):
    with pytest.raises(InvalidDimensions, match="is not a sequence of d=2 ints"):
        NOT_ITERABLE[case]()
