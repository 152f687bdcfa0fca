import math
import random

import pytest
from conftest import counts_by_beta, support_classes
from hypothesis import given, settings
from hypothesis import strategies as st

from ic_alloc.combinatorics import binomial
from ic_alloc.counting import (
    beta_range_excluded,
    beta_range_interior,
    block_bounds,
    block_index,
    block_slices,
    card_C_beta,
    card_R_beta_I,
    m_beta,
    phi_min,
    pi_lower_bound,
    pi_lower_bound_int,
    t_beta,
)
from ic_alloc.errors import (
    BetaOutOfRange,
    DegenerateDenominator,
    IndexOutOfRange,
    InvalidPhi,
)


# --- t_beta / card_C_beta -------------------------------------------------


@pytest.mark.parametrize(
    "s,f,d,beta,expected",
    [
        (2, 3, 2, 1, 1),
        (2, 3, 2, 2, 4),   # s**d
        (3, 3, 3, 1, 1),
        (2, 3, 3, 2, 4),   # C(4,3) triples from two size-2 families, none inside one
    ],
)
def test_t_beta_goldens(s, f, d, beta, expected):
    assert t_beta(s, f, d, beta) == expected


def test_t_beta_full_support_is_power():
    for s in range(1, 6):
        for d in range(1, 5):
            assert t_beta(s, d, d, d) == s**d


def test_t_beta_out_of_range():
    with pytest.raises(BetaOutOfRange):
        t_beta(2, 3, 2, 0)
    with pytest.raises(BetaOutOfRange):
        t_beta(2, 3, 2, 3)
    with pytest.raises(BetaOutOfRange):
        t_beta(2, 2, 3, 3)  # beta exceeds f


@pytest.mark.parametrize(
    "s,f,d,beta,expected",
    [(2, 3, 2, 1, 3), (2, 3, 2, 2, 12)],
)
def test_card_C_beta_goldens(s, f, d, beta, expected):
    assert card_C_beta(s, f, d, beta) == expected


def test_interior_identity_sums_to_binomial():
    # sum over beta of C(f,beta) * t_beta == C(n,d), for every s | n
    for n in range(2, 41):
        for s in range(1, n + 1):
            if n % s:
                continue
            f = n // s
            for d in range(1, min(n, 4) + 1):
                if f < d:
                    continue
                total = sum(
                    card_C_beta(s, f, d, beta)
                    for beta in beta_range_interior(s, d)
                    if beta <= f
                )
                assert total == binomial(n, d), (n, s, d)


def test_interior_matches_enumeration():
    for n in range(2, 21):
        for s in (1, 2, 3, 4, 5):
            if n % s:
                continue
            f = n // s
            for d in (2, 3, 4):
                if d > n or f < d:
                    continue
                by_beta = counts_by_beta(n, d, s)
                for beta in beta_range_interior(s, d):
                    if beta > f:
                        continue
                    assert by_beta.get(beta, 0) == card_C_beta(s, f, d, beta)
                for (_, I), members in support_classes(n, d, s).items():
                    assert len(members) == t_beta(s, f, d, len(I))


# --- m_beta ----------------------------------------------------------------


@pytest.mark.parametrize(
    "f,d,beta,expected",
    [(3, 2, 1, 2), (3, 2, 2, 1), (5, 3, 1, 6), (4, 4, 0, 1)],
)
def test_m_beta_goldens(f, d, beta, expected):
    assert m_beta(f, d, beta) == expected


def test_m_beta_guard():
    with pytest.raises(BetaOutOfRange):
        m_beta(3, 4, 1)  # d > f
    with pytest.raises(BetaOutOfRange):
        m_beta(5, 3, 4)  # beta > d


# --- card_R_beta_I ---------------------------------------------------------


def test_card_R_goldens():
    assert card_R_beta_I(s0=2, f=3, g=1, d=2, beta=1) == 2
    # no excluded elements -> empty class at every admissible beta
    for beta in beta_range_excluded(2, 0, 3):
        assert card_R_beta_I(s0=2, f=4, g=0, d=3, beta=beta) == 0


def test_card_R_totals_cover_excluded_universe():
    # sum over beta of C(f,beta)*|R| == C(n,d) - C(n',d)
    shapes = [
        (2, 3, 1, 2),  # s0, f, g, d  (n=7 instance)
        (2, 3, 4, 2),  # g >= d, exercises beta = 0
        (3, 3, 2, 3),
        (1, 4, 2, 3),
        (2, 5, 3, 4),
        (4, 4, 5, 2),
    ]
    for s0, f, g, d in shapes:
        n_prime = s0 * f
        n = n_prime + g
        total = sum(
            binomial(f, beta) * card_R_beta_I(s0, f, g, d, beta)
            for beta in beta_range_excluded(s0, g, d)
            if beta <= f
        )
        assert total == binomial(n, d) - binomial(n_prime, d), (s0, f, g, d)


def test_card_R_matches_enumeration():
    for s0, f, g, d in [(2, 3, 1, 2), (2, 3, 4, 2), (3, 3, 2, 3), (2, 4, 3, 3), (1, 5, 2, 2)]:
        n_prime = s0 * f
        n = n_prime + g
        for (touches_tail, I), members in support_classes(n, d, s0, g).items():
            if touches_tail:
                assert len(members) == card_R_beta_I(s0, f, g, d, len(I)), (s0, f, g, d, I)
        # non-negativity across the whole admissible range
        for beta in beta_range_excluded(s0, g, d):
            if beta <= f:
                assert card_R_beta_I(s0, f, g, d, beta) >= 0


def test_card_R_out_of_range():
    with pytest.raises(BetaOutOfRange):
        card_R_beta_I(2, 3, 1, 2, beta=2)  # beta_max is d-1
    with pytest.raises(BetaOutOfRange):
        card_R_beta_I(2, 3, 1, 2, beta=0)  # beta_min is 1 when g < d


# --- block bounds ----------------------------------------------------------


@pytest.mark.parametrize(
    "t,m,j,expected",
    [
        (5, 2, 1, (1, 3)),
        (5, 2, 2, (4, 5)),
        (4, 2, 1, (1, 2)),
        (4, 2, 2, (3, 4)),
        (3, 5, 4, (4, 3)),  # empty block: start > end
    ],
)
def test_block_bounds_goldens(t, m, j, expected):
    assert block_bounds(t, m, j) == expected


def test_block_bounds_guard():
    with pytest.raises(IndexOutOfRange):
        block_bounds(5, 2, 0)
    with pytest.raises(IndexOutOfRange):
        block_bounds(5, 2, 3)


def _check_tiling(t, m):
    q, r = divmod(t, m)
    cursor = 1
    bigger = 0
    slices = block_slices(list(range(1, t + 1)), m)
    assert len(slices) == m
    for j in range(1, m + 1):
        start, end = block_bounds(t, m, j)
        assert slices[j - 1] == list(range(start, end + 1))
        size = end - start + 1
        if size > 0:
            assert start == cursor
            cursor = end + 1
        assert size in (q, q + 1)
        bigger += size == q + 1
        for pos in range(start, end + 1):
            assert block_index(t, m, pos) == j
    assert cursor == t + 1
    assert bigger == (r if q > 0 else min(r, t))


def test_block_tiling_exhaustive_small():
    for t in range(1, 121):
        for m in range(1, t + 3):  # m > t has empty blocks
            _check_tiling(t, m)


def test_block_tiling_sampled_large():
    rng = random.Random(5)
    for _ in range(200):
        t = rng.randint(1, 10**4)
        m = rng.randint(1, t)
        _check_tiling(t, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4), st.data())
def test_block_index_inverts_bounds(t, data):
    m = data.draw(st.integers(1, t))
    pos = data.draw(st.integers(1, t))
    j = block_index(t, m, pos)
    start, end = block_bounds(t, m, j)
    assert start <= pos <= end


# --- phi_min ---------------------------------------------------------------


def test_phi_min_goldens():
    r = phi_min(1000, 2, 10)
    assert math.isclose(r.value, 0.019039, rel_tol=1e-3)
    assert not r.vacuous
    r = phi_min(200, 2, 10)
    assert math.isclose(r.value, 0.4034, rel_tol=1e-3)
    assert not r.vacuous
    r = phi_min(100, 2, 10)
    assert math.isclose(r.value, 1.523, rel_tol=1e-3)
    assert r.vacuous


def test_phi_min_recomputed_from_formula():
    for n, d, N in [(1000, 2, 10), (200, 2, 10), (500, 3, 50)]:
        r = phi_min(n, d, N)
        expected = 96 * N * math.log(2 * N * n) / (binomial(n, d) - 2 ** (d + 2) * N)
        assert math.isclose(r.value, expected, rel_tol=1e-12)


def test_phi_min_past_the_float_range():
    # C(1100, 400) is about 10^311, past any float, while phi_min is a float
    n, d, N = 1100, 400, 5
    r = phi_min(n, d, N)
    log_value = math.log(96 * N * math.log(2 * N * n)) - math.log(
        binomial(n, d) - 2 ** (d + 2) * N)
    assert r.value > 0 and math.isclose(r.value, math.exp(log_value), rel_tol=1e-12)
    r = phi_min(10**7, 1000, 5)
    assert r.value == 0.0 and not r.vacuous
    # within the float range the value keeps its bits
    for n, d, N in [(1000, 2, 10), (200, 2, 10), (100, 2, 10), (399, 6, 7), (57, 3, 40)]:
        old = 96.0 * N * math.log(2 * N * n) / (binomial(n, d) - (1 << (d + 2)) * N)
        assert phi_min(n, d, N).value == old


def test_phi_min_degenerate():
    with pytest.raises(DegenerateDenominator):
        phi_min(10, 2, 10)  # C(10,2)=45 <= 16*10
    with pytest.raises(DegenerateDenominator, match=r"margin -1\.1e4516$"):
        phi_min(15000, 15000, 1)  # a margin of 4,517 digits


# --- pi lower bound --------------------------------------------------------


def test_pi_lower_bound_goldens():
    v = pi_lower_bound(6, 2, 3, 1.0)
    assert math.isclose(v, 6 / math.sqrt(3), rel_tol=1e-12)
    assert pi_lower_bound_int(6, 2, 3, 1.0) == 4
    assert pi_lower_bound(30, 2, 1, 1.0) == 30.0
    assert math.isclose(pi_lower_bound(100, 2, 25, 0.25), 10.0, rel_tol=1e-12)
    assert pi_lower_bound_int(100, 2, 25, 0.25) == 10  # exact-integer value stays put


def test_pi_lower_bound_floor_at_d():
    assert pi_lower_bound_int(10, 4, 4, 0.001) == 4


def test_pi_lower_bound_invalid_phi():
    for phi in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidPhi):
            pi_lower_bound(10, 2, 2, phi)
