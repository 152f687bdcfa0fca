import gc
import hashlib
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations

import pytest
from conftest import support_classes

from ic_alloc import design

from ic_alloc.combinatorics import binomial, enumerate_lex, lex_unrank
from ic_alloc.counting import (
    beta_range_excluded,
    beta_range_interior,
    block_bounds,
    card_R_beta_I,
    t_beta,
)
from ic_alloc.covering import PrefixTables, count_below
from ic_alloc.design import (
    DIVISIBLE,
    NONDIVISIBLE,
    Router,
    _derive,
    _prime_partition,
    assign_base_group,
    assign_tasks,
    build_base_partition,
    build_families,
    derive_parameters,
    eligible_placement,
    partition_from_groups,
    refine,
    router,
    support_of,
)
from ic_alloc.errors import (
    DimensionMismatch,
    DuplicateEdge,
    InstanceTooLarge,
    InvalidDimensions,
    UnsupportedParameters,
)
from ic_alloc.tasks import TaskSet

# (n, d, N) points chosen to cover: both cases, beta=0 excluded buckets,
# k capped at n, q > 1 and r > 0 extensions, d up to 4
CONSISTENCY_GRID = [
    (6, 2, 3), (7, 2, 3), (11, 2, 3), (12, 2, 7), (9, 2, 40), (2, 2, 5),
    (12, 3, 4), (13, 3, 4), (14, 3, 10), (16, 4, 5), (18, 4, 15),
    (30, 2, 21), (30, 3, 9), (40, 2, 36), (8, 2, 6), (6, 6, 10),
]


# --- parameter derivation ---------------------------------------------------


def test_derive_divisible_worked_example():
    p = derive_parameters(6, 2, 3)
    assert (p.k, p.s, p.f, p.N_prime, p.case) == (3, 2, 3, 3, DIVISIBLE)
    assert (p.q, p.p, p.r) == (1, 1, 0)
    assert p.g == 0 and p.n_prime == 6


def test_derive_nondivisible_worked_example():
    p = derive_parameters(7, 2, 3)
    assert (p.k, p.s0, p.g, p.n_prime, p.case) == (3, 2, 1, 6, NONDIVISIBLE)


def test_derive_extension_constants():
    p = derive_parameters(6, 2, 4)
    assert (p.k, p.N_prime, p.q, p.p, p.r) == (3, 3, 1, 2, 1)


def test_derive_rejects_invalid_k():
    # k=4 (C(4,2)=6 <= 6), 4 does not divide 6, and s0=2 > floor(6/4)=1
    with pytest.raises(UnsupportedParameters):
        derive_parameters(6, 2, 6)


def test_derive_caps_k_at_n():
    p = derive_parameters(6, 2, 40)
    assert p.k == 6 and p.k_capped and p.case == DIVISIBLE and p.s == 1
    assert p.N_prime == 15


def test_derive_rejects_bad_dimensions():
    with pytest.raises(InvalidDimensions):
        derive_parameters(4, 5, 2)
    with pytest.raises(InvalidDimensions):
        derive_parameters(4, 0, 2)
    with pytest.raises(UnsupportedParameters):
        derive_parameters(6, 2, 0)


def _k_by_steps(n, d, N):
    # the derivation of k before it became a bisection, kept as the reference
    k = d
    while k + 1 <= n and binomial(k + 1, d) <= N:
        k += 1
    return k


def test_derive_k_matches_the_stepwise_reference():
    for d in range(1, 6):
        for n in range(d, 70):
            for N in (*range(1, 300), 10**6, 10**9):
                k = _k_by_steps(n, d, N)
                try:
                    assert _derive(n, d, N).k == k, (n, d, N)
                except UnsupportedParameters as exc:
                    assert str(exc).startswith(f"k={k} "), (n, d, N, exc)


def test_derive_k_takes_logarithmic_steps():
    # k is about 4.5 million here; one step per k took 0.7 s
    start = time.perf_counter()
    with pytest.raises(UnsupportedParameters, match="^k=4472136 "):
        _derive(10**9, 2, 10**13)
    assert time.perf_counter() - start < 0.05


def test_derive_warns_outside_recommended_regime():
    with pytest.warns(UserWarning):
        derive_parameters(6, 2, 3)


# --- families and support ---------------------------------------------------


def test_build_families_goldens():
    assert build_families(derive_parameters(6, 2, 3)) == [(1, 2), (3, 4), (5, 6)]
    p7 = derive_parameters(7, 2, 3)
    assert build_families(p7) == [(1, 2), (3, 4), (5, 6)]
    assert p7.excluded == (7,)
    assert build_families(derive_parameters(12, 2, 3)) == [
        (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12),
    ]


def test_support_of_goldens():
    p = derive_parameters(6, 2, 3)
    info = support_of((3, 4), p)
    assert (info.families, info.beta, info.excluded_count) == ((2,), 1, 0)
    info = support_of((1, 6), p)
    assert (info.families, info.beta) == ((1, 3), 2)
    p7 = derive_parameters(7, 2, 3)
    info = support_of((1, 7), p7)
    assert (info.families, info.beta, info.excluded_count) == ((1,), 1, 1)


# --- base partition golden contents ------------------------------------------


def test_base_partition_6_2_3_exact_contents():
    base = build_base_partition(derive_parameters(6, 2, 3))
    assert base.groups == (
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        ((1, 5), (1, 6), (2, 5), (2, 6), (5, 6)),
        ((3, 5), (3, 6), (4, 5), (4, 6)),
    )
    assert base.placement == ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6))


def test_base_partition_7_2_3_case2():
    base = build_base_partition(derive_parameters(7, 2, 3))
    assert (1, 7) in base.groups[0]
    assert max(len(f) for f in base.placement) <= 5  # s0*d + g
    total = sum(len(g) for g in base.groups)
    assert total == binomial(7, 2)


def test_base_partition_11_2_3_exact_contents():
    # hand-derived non-divisible instance with g=2 >= d, so the all-excluded
    # pair {10,11} forms its own support class dealt to the lex-first group
    base = build_base_partition(derive_parameters(11, 2, 3))
    assert base.groups == (
        (
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 10), (1, 11),
            (2, 4), (2, 5), (2, 6), (2, 10),
            (3, 4), (3, 5), (3, 6),
            (4, 5), (4, 6), (4, 10), (4, 11), (5, 10), (10, 11),
        ),
        (
            (1, 7), (1, 8), (1, 9), (2, 3), (2, 7), (2, 8), (2, 9), (2, 11),
            (3, 7), (3, 8), (3, 9), (3, 10), (3, 11),
            (7, 8), (7, 9), (7, 10), (7, 11), (8, 10),
        ),
        (
            (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (5, 11),
            (6, 7), (6, 8), (6, 9), (6, 10), (6, 11),
            (8, 9), (8, 11), (9, 10), (9, 11),
        ),
    )
    assert base.placement == (
        (1, 2, 3, 4, 5, 6, 10, 11),
        (1, 2, 3, 7, 8, 9, 10, 11),
        (4, 5, 6, 7, 8, 9, 10, 11),
    )


def _reference_prime_partition(n, d, k):
    """The construction from the per-tuple support classes of A_{n,d}:
    deal each class to the labels containing its support, in block order.
    A full-support class has one such label, so it goes to it whole."""
    params = _derive(n, d, binomial(k, d))
    labels = list(combinations(range(1, params.f + 1), d))
    groups = {sigma: [] for sigma in labels}
    for (_, I), members in support_classes(n, d, params.family_size, params.g).items():
        eligible = [sigma for sigma in labels if set(I) <= set(sigma)]
        for j, sigma in enumerate(eligible, start=1):
            start, end = block_bounds(len(members), len(eligible), j)
            groups[sigma].extend(members[start - 1 : end])
    return tuple(tuple(sorted(groups[sigma])) for sigma in labels)


def _check_class_sizes_against_closed_forms(n, d, k):
    """The router's class sizes come from the covering DP; each non-empty
    class must have the paper's count, t_beta without the tail and
    card_R_beta_I with it, and the non-empty classes must be exactly
    those the paper's beta ranges admit."""
    params = _derive(n, d, binomial(k, d))
    rt = Router(params)
    list(rt.classes_within(range(1, k + 1)))  # builds every non-empty class
    s, f, g = params.family_size, params.f, params.g
    for (I, exc), cls in rt._classes.items():
        beta = len(I)
        expected = card_R_beta_I(s, f, g, d, beta) if exc else t_beta(s, f, d, beta)
        assert cls.size == expected, (n, d, k, I, exc)
    admitted = sum(binomial(k, beta) for beta in beta_range_interior(s, d))
    if params.case == NONDIVISIBLE:
        admitted += sum(binomial(k, beta) for beta in beta_range_excluded(s, g, d))
    assert len(rt._classes) == admitted, (n, d, k)


def test_prime_partition_matches_per_tuple_classification():
    """Every supported (n, d, N) with d <= 4, N <= 40 and n up to 45, 60,
    36 and 24 for d = 1..4: 5,209 points, 959 distinct (n, d, k), since N
    reaches the construction only through k.  At each, the router's class
    sizes also match the closed forms.  Budget: about 3 s."""
    seen, kinds = set(), set()
    for d, n_max in ((1, 45), (2, 60), (3, 36), (4, 24)):
        for n in range(d, n_max + 1):
            for N in range(1, 41):
                try:
                    params = _derive(n, d, N)
                except UnsupportedParameters:
                    continue
                kinds |= {params.case, (N == 1, "N=1"), (d == 1, "d=1"),
                          (params.k_capped, "k capped"), (0 < params.g < d, "0 < g < d")}
                if (n, d, params.k) not in seen:
                    seen.add((n, d, params.k))
                    expected = _reference_prime_partition(n, d, params.k)
                    assert _prime_partition(n, d, params.k) == expected, (n, d, N)
                    _check_class_sizes_against_closed_forms(n, d, params.k)
    assert len(seen) == 959
    assert {DIVISIBLE, NONDIVISIBLE, (True, "N=1"), (True, "d=1"), (True, "k capped"),
            (True, "0 < g < d")} <= kinds


GROUPS_SHA256 = {
    (121, 40): "29b96b6349e1fcb7b6a2331392f9e5e57becc8e0519cbd91951a6385dc536565",
    (96, 30): "87ca6b325126c1edb8bc8715bbc8bebb538d5a02135cb44db815b8a88ddb3775",
}


@pytest.mark.parametrize("n,N", sorted(GROUPS_SHA256))
def test_base_partition_groups_golden_sha256(n, N):
    # the benchmark's two materialized instances: non-divisible and divisible
    groups = build_base_partition(derive_parameters(n, 3, N)).groups
    assert hashlib.sha256(repr(groups).encode()).hexdigest() == GROUPS_SHA256[n, N]


def test_base_partition_extension_slices():
    base = build_base_partition(derive_parameters(6, 2, 4))
    # group 4 is the second lexicographic half of old group 1
    assert base.groups[3] == ((2, 3), (2, 4), (3, 4))
    assert base.groups[0] == ((1, 2), (1, 3), (1, 4))


def test_materialization_cap():
    # C(600, 3) = 35.8M tuples, or 10^12 groups, is over the 10^7 cap:
    # refused before any allocation
    with pytest.raises(InstanceTooLarge):
        build_base_partition(derive_parameters(600, 3, 200))
    with pytest.raises(InstanceTooLarge, match="N = 1000000000000 groups"):
        build_base_partition(derive_parameters(6, 2, 10**12))


def _run_limited_to_1gb(body: str) -> None:
    """Run body in a child process limited to 1 GB of address space, with
    ic_alloc importable, and fail on a nonzero exit."""
    code = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n" + body
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_streaming_refuses_an_n_over_the_cap_before_allocating():
    # in a child limited to 1 GB of address space, so that a missing check
    # ends in MemoryError rather than in one list entry per group for 10^12
    # or 10^8 groups, or, at n=10000, d=5 (N at the cap), in N' = 9,657,648
    # label tuples of 1,382 files each; the refusal itself takes well under
    # a second
    _run_limited_to_1gb("""if True:
        import time
        from ic_alloc.design import assign_tasks, derive_parameters, eligible_placement
        from ic_alloc.errors import InstanceTooLarge
        from ic_alloc.tasks import TaskSet
        for n, d, N, reason in ((6, 2, 10**12, "N = 1000000000000 groups"),
                                (14142, 2, 10**8, "N = 100000000 groups"),
                                (10000, 5, 10**7, "N' = 9657648 labels of 1382 files each "
                                 "(106774956288 bytes)")):
            params = derive_parameters(n, d, N)
            edges = [tuple(range(1, d + 1))]
            for call in (lambda: assign_tasks(params, TaskSet.from_edges(n, d, edges)),
                         lambda: eligible_placement(params)):
                start = time.perf_counter()
                try:
                    call()
                except InstanceTooLarge as exc:
                    assert reason in str(exc), exc
                else:
                    raise AssertionError("no InstanceTooLarge")
                assert time.perf_counter() - start < 1.0
    """)


def test_router_routes_at_any_n_prime_without_listing_labels():
    """In a child limited to 1 GB, the first tuple of each kind routes in well
    under a second at N' = 99,991,011 (n=14142, d=2: one file a family, so
    every tuple has full support) and N' = 9,657,648 (n=10000, d=5: f=67,
    s0=139, g=687, 342,352 split labels; label 1 is split at both).  Each
    lands in a slice of a label holding its families: exactly its families
    when it has full support."""
    _run_limited_to_1gb("""if True:
        import time
        from ic_alloc.combinatorics import lex_unrank
        from ic_alloc.design import assign_base_group, derive_parameters
        cases = {
            (14142, 2, 10**8): [((5000, 14142), (5000, 14142)),  # full support
                                ((1, 2), (1, 2))],  # label 1, split
            (10000, 5, 10**7): [((278, 1000, 3000, 6000, 9313), (2, 8, 22, 44, 67)),
                                ((1, 140, 279, 418, 557), (1, 2, 3, 4, 5)),  # label 1, split
                                ((1, 140, 9400, 9500, 9600), (1, 2)),  # the tail
                                ((2000, 2001, 2002, 2003, 2004), (15,))],  # one family
        }
        for (n, d, N), tuples in cases.items():
            params = derive_parameters(n, d, N)
            for t, families in tuples:
                start = time.perf_counter()
                g = assign_base_group(t, params)
                assert time.perf_counter() - start < 0.5, (t, time.perf_counter() - start)
                slice_, b0 = divmod(g - 1, params.N_prime)
                b0 += 1
                assert slice_ < (params.p if b0 <= params.r else params.q), (t, g)
                label = lex_unrank(b0, params.f, d)
                assert set(families) <= set(label), (t, label)
    """)


def test_eligible_ranks_are_the_positions_of_the_supersets():
    """For every f <= 9, d <= f and I: the j-th label containing I, I merged
    with the j-th (d - |I|)-subset of [f] minus I, is the j-th superset of I
    among the d-subsets of [f] in lexicographic order."""
    for f in range(1, 10):
        for d in range(1, f + 1):
            rt = Router(_derive(f, d, binomial(f, d)))  # k = f: one file a family
            assert rt.params.f == f
            labels = list(combinations(range(1, f + 1), d))
            for beta in range(d + 1):
                for I in combinations(range(1, f + 1), beta):
                    expected = [b0 for b0, sigma in enumerate(labels, 1) if set(I) <= set(sigma)]
                    got = [rt.eligible_rank(I, j) for j in range(1, len(expected) + 1)]
                    assert got == expected, (f, d, I)


# --- partition-level invariants ----------------------------------------------


@pytest.mark.parametrize("n,d,N", CONSISTENCY_GRID)
def test_partition_is_valid(n, d, N):
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    cnd = binomial(n, d)
    assert sum(len(g) for g in base.groups) == cnd
    assert len({t for g in base.groups for t in g}) == cnd
    for g, fp in zip(base.groups, base.placement):
        assert {x for t in g for x in t} == set(fp)
        assert list(g) == sorted(g)


@pytest.mark.parametrize("n,d,N", CONSISTENCY_GRID)
def test_pi_matches_case_promise(n, d, N):
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    pi = max(len(f) for f in base.placement)
    if params.case == DIVISIBLE:
        assert pi == params.s * d
    else:
        assert pi <= params.s0 * d + params.g


@pytest.mark.parametrize("n,d,N", CONSISTENCY_GRID)
def test_pre_extension_size_bounds(n, d, N):
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    cnd = binomial(n, d)
    slack = (2**d - d) if params.case == DIVISIBLE else (2 ** (d + 1) - 2 * d)
    # the N' groups before extension: group b's slices are b, b + N', b + 2N', ...
    sizes = [sum(map(len, base.groups[b::params.N_prime])) for b in range(params.N_prime)]
    assert sum(sizes) == cnd
    for sz in sizes:
        assert abs(sz * params.N_prime - cnd) <= slack * params.N_prime


def test_group_count_ratio_where_k_uncapped():
    for n, d, N in CONSISTENCY_GRID:
        params = derive_parameters(n, d, N)
        if not params.k_capped:
            assert N / params.N_prime < d + 1


# --- functional consistency ---------------------------------------------------


@pytest.mark.parametrize("n,d,N", CONSISTENCY_GRID)
def test_assign_matches_materialized_membership(n, d, N):
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    for b, g in enumerate(base.groups, start=1):
        for t in g:
            assert assign_base_group(t, params) == b, (n, d, N, t)


def test_router_matches_materialization_on_small_grid():
    """Router against materialized membership for every tuple of every
    supported (n <= 30, d in {2, 3}, N <= 40): 1,901 points, 1.38M routed
    tuples.  Budget: about 10 s on a 2-core VM."""
    for d in (2, 3):
        for n in range(d, 31):
            full = TaskSet.full(n, d)
            for N in range(1, 41):
                try:
                    params = derive_parameters(n, d, N)
                except UnsupportedParameters:
                    continue
                # both sides list every group's tuples in lexicographic order
                streamed = assign_tasks(params, full).groups
                assert streamed == build_base_partition(params).groups, (n, d, N)


def test_label_pieces_size_and_position_match_materialized_groups():
    for n, d, N in [(7, 2, 3), (11, 2, 3), (13, 3, 4), (16, 4, 5), (12, 2, 7)]:
        params = derive_parameters(n, d, N)
        rt = router(params)
        labels = combinations(range(1, params.f + 1), d)
        for sigma, members in zip(labels, _prime_partition(n, d, params.k)):
            pieces, size = rt.pieces(sigma)
            assert size == len(members), (n, d, N, sigma)
            for i, t in enumerate(members, start=1):
                assert rt.position(t, pieces) == i, (n, d, N, sigma, t)


@pytest.mark.parametrize("N,case", [(200, NONDIVISIBLE), (120, DIVISIBLE)])
def test_router_invariants_beyond_materialization_cap(N, case):
    """n=600, d=3: C(n, d) = 35,820,200 is never materialized, but the
    router's label sizes must still tile it, each within the case's window
    around C(n, d) / N', and every split label's cut tuples must be the
    members that open its slices."""
    n, d = 600, 3
    params = derive_parameters(n, d, N)
    assert params.case == case
    with pytest.raises(InstanceTooLarge):
        build_base_partition(params)
    slack = (2**d - d) if case == DIVISIBLE else (2 ** (d + 1) - 2 * d)
    rt = router(params)
    labels = list(combinations(range(1, params.f + 1), d))
    sizes = [rt.pieces(sigma)[1] for sigma in labels]
    cnd = binomial(n, d)
    assert len(sizes) == params.N_prime and sum(sizes) == cnd
    for sz in sizes:
        assert abs(sz * params.N_prime - cnd) <= slack * params.N_prime
    for b0 in range(1, params.r + 1):
        sigma = labels[b0 - 1]
        pieces, size = rt.pieces(sigma)
        first = 1 + -(-size // params.p)  # the larger slices come first
        cut = rt._label_cuts(sigma, params.p)[0]
        assert rt.position(cut, pieces) == first
        assert rt.route(cut) == b0 + params.N_prime


def _extreme_members(blocks, d):
    """The lexicographically smallest and largest d-tuples taking at least
    one element from each block: the smallest gives each block, in order,
    as many of its lowest elements as the later blocks allow; the largest
    gives each block as few of its highest elements as the later blocks'
    room allows."""
    widths = [hi - lo + 1 for lo, hi in blocks]
    low, high, left_low, left_high = (), (), d, d
    for bi, (lo, hi) in enumerate(blocks):
        later = widths[bi + 1 :]
        c = min(widths[bi], left_low - len(later))
        low += tuple(range(lo, lo + c))
        left_low -= c
        c = max(1, left_high - sum(later))
        high += tuple(range(hi - c + 1, hi + 1))
        left_high -= c
    return low, high


@pytest.mark.parametrize("N,widths", [(200, {43, 127}), (120, {60})])
def test_class_extremes_rank_first_and_last_beyond_materialization_cap(N, widths):
    """n=600, d=3: for every non-empty support class, count_below puts the
    class's smallest member at rank 0 and its largest at size - 1.  The
    members come from the blocks alone, so the prefix tables of every block
    shape (family width 43 and tail width 127 at N=200, family width 60 at
    N=120) are checked at both ends without materializing any class."""
    n, d = 600, 3
    params = derive_parameters(n, d, N)
    rt = Router(params)
    seen = set()
    for cls in rt.classes_within(range(1, params.f + 1)):
        low, high = _extreme_members(cls.blocks, d)
        assert count_below(low, cls.blocks, d, cls.tables) == 0, cls.blocks
        assert count_below(high, cls.blocks, d, cls.tables) == cls.size - 1, cls.blocks
        seen |= {hi - lo + 1 for lo, hi in cls.blocks}
    assert seen == widths


def _stream_tuples(count, seed, n=600, d=3, window=86):
    # alternately uniform over [n] and local to a window two families wide
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            lo = rng.randint(1, n - window + 1)
            pool = range(lo, lo + window)
        else:
            pool = range(1, n + 1)
        out.append(tuple(sorted(rng.sample(pool, d))))
    return out


def _count_table_builds(monkeypatch) -> list:
    built = []
    missing = PrefixTables.__missing__

    def counting(self, u):
        built.append((self.widths, u))
        return missing(self, u)

    monkeypatch.setattr(PrefixTables, "__missing__", counting)
    return built


def test_materialized_build_builds_no_ranking_tables(monkeypatch):
    """The build walks every support class but never ranks a tuple, so it
    fills no prefix table; a fresh Router's first route does."""
    built = _count_table_builds(monkeypatch)
    params = derive_parameters(121, 3, 40)
    _prime_partition.cache_clear()
    build_base_partition(params)
    assert built == []
    Router(params).route((1, 2, 121))  # one family plus the tail: ranked
    assert built


def test_a_build_at_d_equal_n_visits_only_classes_that_can_hold_a_tuple(monkeypatch):
    """At n = d = 16, N = 1 the 16 families have one file each, so only the
    class of all 16 families holds the single 16-tuple; the 2^16 smaller
    supports hold none and are not visited."""
    calls = []
    support_class = Router.support_class
    monkeypatch.setattr(Router, "support_class",
                        lambda self, *key: calls.append(key) or support_class(self, *key))
    params = derive_parameters(16, 16, 1)
    _prime_partition.cache_clear()
    base = build_base_partition(params)
    assert base.groups == ((tuple(range(1, 17)),),)
    assert len(calls) <= 2


def test_router_tables_are_shared_by_shape(monkeypatch):
    """Routing 20,000 stream tuples at n=600, d=3, N=200 builds at most one
    table per (block shape, elements left): 2 (d + 1) d, whatever the
    number of classes routed through."""
    built = _count_table_builds(monkeypatch)
    params = derive_parameters(600, 3, 200)
    rt = Router(params)
    for t in _stream_tuples(20_000, seed=17):
        rt.route(t)
    assert len(rt._classes) > 100
    assert 0 < len(built) == len(set(built)) <= 2 * (params.d + 1) * params.d


def test_router_memory_after_routing_stream_tuples():
    """A fresh Router at n=600, d=3, N=200, with everything that routing
    20,000 stream tuples builds in it, peaks at no more than 0.196 MB
    traced."""
    # No collection may run from here to the end of the window: a full one
    # empties the interpreter's free lists, so that objects the Router would
    # have taken from them are allocated and traced (+24 kB; gc.collect()
    # before the window reads 210,768 B, against 186,808 without it).
    gc.disable()
    try:
        params = derive_parameters(600, 3, 200)
        tuples = _stream_tuples(20_000, seed=23)
        tracemalloc.start()
        rt = Router(params)
        for t in tuples:
            rt.route(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 0.196e6


def test_router_memory_grows_with_the_labels_met_not_with_each_class_labels():
    """At n=2828, d=2, N=10^6 there are k = 1,414 families of 2 files, so each
    one-family class has 1,413 labels; routing one tuple into each of 500 such
    classes keeps the rank of the one label each meets, and peaks at no more
    than 2 MB traced (a list of every class's labels took 6.57 MB)."""
    gc.disable()  # as in the test above: no collection inside the window
    try:
        params = derive_parameters(2828, 2, 10**6)
        assert (params.k, params.s) == (1414, 2)
        tracemalloc.start()
        rt = Router(params)
        for x in range(1, 501):
            rt.route((2 * x - 1, 2 * x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 2e6


def test_router_ranks_each_label_met_once(monkeypatch):
    """Routing 20,000 stream tuples ranks each (I, j) it meets once, shared by
    the classes of I with and without the tail."""
    calls = []
    eligible_rank = Router.eligible_rank
    monkeypatch.setattr(Router, "eligible_rank",
                        lambda self, I, j: calls.append((I, j)) or eligible_rank(self, I, j))
    rt = Router(derive_parameters(600, 3, 200))
    for t in _stream_tuples(20_000, seed=23):
        rt.route(t)
    met = [(I, j) for I, ranks in rt._ranks.items() for j in ranks]
    assert sorted(calls) == sorted(met) and len(set(calls)) == len(calls)


def test_router_builds_no_cut_for_an_empty_slice():
    """At n=10, d=2, N=10^5 every label is split into thousands of slices but
    holds one tuple (k = n), so every slice after its first is empty: routing
    all 45 tuples matches the materialized membership and keeps no cut."""
    params = derive_parameters(10, 2, 10**5)
    assert params.k == params.n and params.q > 1
    membership = {t: b for b, g in enumerate(build_base_partition(params).groups, 1) for t in g}
    rt = Router(params)
    assert {t: rt.route(t) for t in enumerate_lex(10, 2)} == membership
    assert not any(rt._cuts.values())


def test_assign_rejects_wrong_arity():
    params = derive_parameters(6, 2, 3)
    with pytest.raises(InvalidDimensions):
        assign_base_group((1, 2, 3), params)


def test_assign_worked_examples():
    params = derive_parameters(6, 2, 3)
    assert assign_base_group((3, 4), params) == 1
    assert assign_base_group((1, 3), params) == 1
    assert assign_base_group((5, 6), params) == 2


# --- refinement ---------------------------------------------------------------


def test_refine_worked_example():
    base = build_base_partition(derive_parameters(6, 2, 3))
    tasks = TaskSet.from_edges(6, 2, [(1, 2), (3, 5), (1, 6)])
    fp = refine(base, tasks)
    assert fp.groups == (((1, 2),), ((1, 6),), ((3, 5),))
    assert fp.placement == base.placement


def test_refine_full_and_empty():
    base = build_base_partition(derive_parameters(7, 2, 3))
    full = refine(base, TaskSet.full(7, 2))
    assert full.groups == base.groups
    empty = refine(base, TaskSet(7, 2, ()))
    assert all(len(g) == 0 for g in empty.groups)
    assert empty.placement == base.placement


def test_refine_dimension_mismatch():
    base = build_base_partition(derive_parameters(6, 2, 3))
    with pytest.raises(DimensionMismatch):
        refine(base, TaskSet.full(7, 2))
    with pytest.raises(DimensionMismatch):
        refine(base, TaskSet.full(6, 3))


def test_assign_tasks_dimension_mismatch():
    params = derive_parameters(6, 2, 3)
    for tasks in (TaskSet.full(7, 2), TaskSet.full(6, 3)):
        with pytest.raises(DimensionMismatch):
            assign_tasks(params, tasks)


def test_refine_feasibility_random_tasks():
    rng = random.Random(11)
    for n, d, N in [(12, 2, 7), (13, 3, 4), (11, 2, 3)]:
        base = build_base_partition(derive_parameters(n, d, N))
        universe = list(enumerate_lex(n, d))
        edges = rng.sample(universe, len(universe) // 3)
        fp = refine(base, TaskSet.from_edges(n, d, edges))
        for g, held in zip(fp.groups, fp.placement):
            assert {x for t in g for x in t} <= set(held)


# --- streaming path -------------------------------------------------------------


def test_assign_tasks_matches_refine_groups():
    for n, d, N in [(7, 2, 3), (12, 2, 7), (13, 3, 4)]:
        params = derive_parameters(n, d, N)
        base = build_base_partition(params)
        rng = random.Random(n * 100 + N)
        universe = list(enumerate_lex(n, d))
        edges = rng.sample(universe, len(universe) // 2)
        tasks = TaskSet.from_edges(n, d, edges)
        streamed = assign_tasks(params, tasks)
        materialized = refine(base, tasks)
        assert streamed.groups == materialized.groups
        # streamed placement is the eligible-files bound: a superset per group
        for exact, bound in zip(materialized.placement, streamed.placement):
            assert set(exact) <= set(bound)


def test_assign_tasks_builds_the_eligible_placement_once_per_parameters(monkeypatch):
    built = []

    def counted(params):
        built.append(params)
        return eligible_placement(params)

    monkeypatch.setattr(design, "eligible_placement", counted)
    router.cache_clear()
    tasks = TaskSet.from_edges(64, 2, [(1, 2), (5, 60), (33, 64)])
    # two equal parameter sets, derived separately
    first = assign_tasks(derive_parameters(64, 2, 10), tasks)
    second = assign_tasks(derive_parameters(64, 2, 10), tasks)
    assert len(built) == 1
    # both calls return the Router's one placement, entry for entry the same tuples
    assert all(map(operator.is_, first.placement, second.placement))
    assert first.placement == eligible_placement(derive_parameters(64, 2, 10))


def test_assign_tasks_returns_one_placement_per_parameters():
    tasks = TaskSet.from_edges(64, 2, [(1, 2), (5, 60), (33, 64)])
    first = assign_tasks(derive_parameters(64, 2, 10), tasks)
    second = assign_tasks(derive_parameters(64, 2, 10), tasks)
    assert first.placement is second.placement is router(derive_parameters(64, 2, 10)).placement


def test_eligible_placement_shape():
    params = derive_parameters(7, 2, 3)
    placement = eligible_placement(params)
    assert len(placement) == 3
    assert all(len(p) == params.s0 * params.d + params.g for p in placement)
    sigma1 = lex_unrank(1, params.f, params.d)
    assert sigma1 == (1, 2)
    assert placement[0] == (1, 2, 3, 4, 7)


# --- hand partitions -------------------------------------------------------------


def test_partition_from_groups_builds_placement():
    fp = partition_from_groups(7, 2, [[(1, 2), (1, 3)], [(2, 3), (4, 5)]])
    assert fp.placement == ((1, 2, 3), (2, 3, 4, 5))
    assert fp.N == 2 and fp.params is None


@pytest.mark.parametrize("groups", [[[(1, 2), (1, 3)], [(2, 3), [1, 3]]], [[(1, 2), (1, 2)], []]],
                         ids=["in-two-groups", "twice-in-one-group"])
def test_partition_from_groups_refuses_a_tuple_listed_twice(groups):
    with pytest.raises(DuplicateEdge, match=r"edge \(1, [23]\) listed twice"):
        partition_from_groups(7, 2, groups)
