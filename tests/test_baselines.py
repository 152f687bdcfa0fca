import hashlib
import math
import statistics
import tracemalloc

import pytest

from ic_alloc import baselines
from ic_alloc.baselines import (
    GENERATOR_ID,
    ThinningSpec,
    lex_partition,
    mix64,
    random_partition,
    thin,
    tuple_draw,
)
from ic_alloc.combinatorics import binomial, enumerate_lex
from ic_alloc.design import (
    DEFAULT_MATERIALIZE_CAP,
    Partition,
    build_base_partition,
    derive_parameters,
    partition_from_groups,
    refine,
)
from ic_alloc.errors import InstanceTooLarge, InvalidArgument, InvalidPhi
from ic_alloc.metrics import pi_of
from ic_alloc.tasks import TaskSet


def _splitmix64_stream(seed, count):
    # reference stateful formulation of the same published algorithm
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_mix64_matches_reference_stream():
    golden = 0x9E3779B97F4A7C15
    for seed in (0, 1, 1234567, 2**64 - 1):
        expected = _splitmix64_stream(seed, 5)
        got = [mix64(seed + (i + 1) * golden) for i in range(5)]
        assert got == expected


def test_thinning_spec_validation():
    with pytest.raises(InvalidPhi):
        ThinningSpec(phi=1.5, seed=0)
    with pytest.raises(InvalidPhi):
        ThinningSpec(phi=-0.1, seed=0)


def test_thin_identity_and_empty():
    full = thin(8, 2, ThinningSpec(phi=1.0, seed=123))
    assert full.edges == TaskSet.full(8, 2).edges
    nothing = thin(8, 2, ThinningSpec(phi=0.0, seed=123))
    assert nothing.edges == ()


def test_thin_deterministic_and_metadata():
    a = thin(20, 2, ThinningSpec(phi=0.4, seed=7))
    b = thin(20, 2, ThinningSpec(phi=0.4, seed=7))
    assert a == b
    assert a.phi == 0.4 and a.seed == 7 and a.generator_id == GENERATOR_ID
    c = thin(20, 2, ThinningSpec(phi=0.4, seed=8))
    assert c.edges != a.edges


def test_thin_size_within_four_sigma():
    m = binomial(200, 2)  # |X| is binomial(m, phi)
    mean, sd = m * 0.5, math.sqrt(m * 0.5 * 0.5)
    assert mean == 9950.0
    size = len(thin(200, 2, ThinningSpec(phi=0.5, seed=42)))
    assert abs(size - mean) <= 4 * sd


@pytest.mark.parametrize(
    "n, d",
    [(1, 1), (1023, 1), (1024, 1), (1025, 1), (2048, 1), (2049, 1), (46, 2),
     (16383, 1), (16384, 1), (16385, 1), (260, 2)],
)
def test_thin_matches_per_rank_draws(n, d):
    # the packed evaluation against tuple_draw, rank by rank, with C(n, d)
    # below, at, a multiple of and just past the lane count, then the same
    # about the 16,384 ranks of one to_bytes, and C(260, 2) = 33,670 over
    # three of them; fewer seeds and phis on those, to keep the test short.
    # One keep byte per rank, rounded up to the lanes; every draw lies in
    # [0, 2**64), so at phi 0 and 1 the bytes are all 0 and all 1
    size = math.ceil(binomial(n, d) / 1024) * 1024
    small = binomial(n, d) < 16383
    for seed in (0, -1, 2**64 - 1, 2**64 + 5, 2**63) if small else (-1, 2**63):
        draws = [tuple_draw(seed, r) for r in range(1, binomial(n, d) + 1)]
        for phi in (0.0, 2**-64, 0.1, 0.5, 1.0) if small else (0.0, 0.1, 0.5, 1.0):
            threshold = min(1 << 64, int(phi * (1 << 64)))
            expected = [t for t, v in zip(enumerate_lex(n, d), draws) if v < threshold]
            x = thin(n, d, ThinningSpec(phi, seed))
            assert list(x.edges) == expected, (seed, phi)
            assert len(x.keep) == size
            if phi in (0.0, 1.0):
                assert x.keep == bytes([threshold >> 64]) * size


def _seed_drawing(value, rank):
    # the seed whose draw at this rank is value: invert the splitmix64 finalizer
    mask = (1 << 64) - 1

    def unshift(x, s):
        y = x
        for _ in range(64 // s):
            y = x ^ (y >> s)
        return y

    x = unshift(value, 31)
    x = unshift(x * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    x = unshift(x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (x - rank * 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize(
    "phi, draw, kept",
    [(0.5, 2**63, False), (0.5, 2**63 - 1, True), (2**-64, 1, False), (2**-64, 0, True)],
)
def test_thin_keeps_draws_strictly_below_the_threshold(phi, draw, kept):
    # one rank in packed ints 0 and 7 (flags shifted right, into bytes 0 and
    # 7), 8 (unshifted), 9 and 15 (shifted left, into bytes 9 and 15) and 16
    # (the next to_bytes), at the first, a middle or the last of the lanes
    for k, lane in ((0, 699), (7, 0), (8, 1023), (9, 512), (15, 1023), (16, 0)):
        rank = k * 1024 + lane + 1
        seed = _seed_drawing(draw, rank)
        assert tuple_draw(seed, rank) == draw
        assert ((rank,) in thin(17 * 1024, 1, ThinningSpec(phi, seed)).edges) is kept, k


def test_thin_golden_digest():
    edges = thin(121, 3, ThinningSpec(phi=0.5, seed=7)).edges
    text = "\n".join(" ".join(map(str, t)) for t in edges)
    assert len(edges) == 143951
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "507d1b11230af9acff3f2edb441710afc2320a2f23300bae967f847143af5fe0"
    )


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("n, d, phi", [(5000, 3, 0.5), (1800, 3, 1.0), (5000, 3, 0.0)])
def test_thin_beyond_the_byte_budget_is_refused_before_drawing(n, d, phi, monkeypatch):
    calls = []
    monkeypatch.setattr(baselines, "_keep_flags", lambda *args: calls.append(args))
    with pytest.raises(InstanceTooLarge, match=f"needs {binomial(n, d)} keep bytes"):
        thin(n, d, ThinningSpec(phi=phi, seed=1))
    assert calls == []


@pytest.mark.parametrize("n, d, phi", [(600, 3, 0.01), (392, 3, 1.0)])
def test_thin_within_the_byte_budget_draws(n, d, phi, monkeypatch):
    # C(392, 3) <= 10^7 builds; n=600, d=3 at phi = 0.01 covers README's thin table
    def drawn(seed, threshold, count):
        raise _Drawn(count)

    monkeypatch.setattr(baselines, "_keep_flags", drawn)
    with pytest.raises(_Drawn):
        thin(n, d, ThinningSpec(phi=phi, seed=1))


def test_thin_mean_concentrates_over_seeds():
    mean = binomial(200, 2) * 0.5
    sizes = [len(thin(200, 2, ThinningSpec(phi=0.5, seed=s))) for s in range(100)]
    assert abs(statistics.fmean(sizes) - mean) / mean <= 0.01


def test_lex_partition_worked_example():
    fp = lex_partition(TaskSet.full(6, 2), 3)
    assert fp.groups[0] == ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
    assert pi_of(fp) == 6


def test_lex_partition_block_sizes_larger_first():
    fp = lex_partition(TaskSet.from_edges(5, 2, [(1, 2), (1, 3)]), 2)
    assert fp.groups == (((1, 2),), ((1, 3),))
    fp = lex_partition(TaskSet.full(4, 2), 4)  # 6 edges -> 2,2,1,1
    assert [len(g) for g in fp.groups] == [2, 2, 1, 1]


def test_random_partition_single_worker_and_determinism():
    tasks = TaskSet.full(6, 2)
    solo = random_partition(tasks, 1, seed=5)
    assert pi_of(solo) == 6
    a = random_partition(tasks, 3, seed=5)
    b = random_partition(tasks, 3, seed=5)
    assert a.groups == b.groups
    assert sum(len(g) for g in a.groups) == binomial(6, 2)


def test_random_partition_has_near_full_footprints():
    # each worker sees ~n files because edges overlap heavily
    n, N = 30, 5
    fp = random_partition(TaskSet.full(n, 2), N, seed=0)
    assert pi_of(fp) >= 25


def test_baselines_refuse_n_over_the_cap_before_allocating():
    # a group apiece at N = 10^7 + 1 would take hundreds of MB
    x, over = TaskSet.from_edges(8, 2, [(1, 2), (3, 4)]), DEFAULT_MATERIALIZE_CAP + 1
    tracemalloc.start()
    try:
        for call in (lambda: lex_partition(x, over), lambda: random_partition(x, over, seed=1)):
            with pytest.raises(InstanceTooLarge, match=f"^N = {over} groups exceeds the cap "):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for call in (lambda: lex_partition(x, 0), lambda: random_partition(x, 0, seed=1)):
        with pytest.raises(InvalidArgument, match="^need N >= 1, got 0$"):
            call()


@pytest.mark.parametrize("N", [3, 5])
def test_ic_beats_baselines_on_pi(N):
    n, d = 30, 2
    params = derive_parameters(n, d, N)
    ic_pi = pi_of(build_base_partition(params))
    tasks = TaskSet.full(n, d)
    assert ic_pi <= pi_of(lex_partition(tasks, N))
    for seed in range(5):
        assert ic_pi <= pi_of(random_partition(tasks, N, seed))


@pytest.mark.parametrize("N", [3, 5])
def test_ic_beats_baselines_on_thinned_tasks(N):
    n, d = 30, 2
    base = build_base_partition(derive_parameters(n, d, N))
    for seed in range(3):
        tasks = thin(n, d, ThinningSpec(phi=0.6, seed=seed))
        ic_pi = pi_of(refine(base, tasks))
        assert ic_pi <= pi_of(lex_partition(tasks, N))
        assert ic_pi <= pi_of(random_partition(tasks, N, seed))


@pytest.mark.parametrize("N", [1, 4, 7])
def test_baselines_equal_validated_partition_of_their_groups(N):
    # the baselines trust their TaskSet's canonical edges; the result must
    # equal what the validating constructor makes of the same groups
    tasks = thin(30, 3, ThinningSpec(phi=0.3, seed=11))
    for fp in (lex_partition(tasks, N), random_partition(tasks, N, seed=3)):
        validated = partition_from_groups(tasks.n, tasks.d, fp.groups)
        assert fp == Partition(**{**validated.__dict__, "metadata": fp.metadata})
        assert sum(len(g) for g in fp.groups) == len(tasks)
