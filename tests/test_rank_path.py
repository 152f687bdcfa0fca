"""refine's run path: an X fresh from thin, refined against a partition that
build_base_partition returned, is dealt out by its keep bytes joined along the
construction's rank runs.  It must give exactly what intersecting each group
with the set of X's edges gives, and every other input must take that set
path.  A refine of a live construction has its footprint sizes from scans that
stop at each group's placement entry, which must equal the full scans."""

import gc
from itertools import chain

import pytest

from ic_alloc import design, metrics, tasks
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import binomial
from ic_alloc.design import (
    Partition, _derive, _prime_partition, build_base_partition, derive_parameters, footprint,
    refine,
)
from ic_alloc.formats import emit_partition, emit_tasks, parse_partition, parse_tasks
from ic_alloc.tasks import TaskSet

# (n, d, N): the divisible and non-divisible cases with N = N', split labels
# (N' < N < 2N'), N' | N with two slices per label, k capped at n (empty
# groups), and N > 256, whose group indices do not fit in a byte.  N' <= N
# always, since k is the largest with C(k, d) <= N.
CASES = {
    "divisible": (12, 2, 6),
    "nondivisible": (13, 2, 6),
    "split_labels": (12, 2, 8),
    "nondivisible_split_d3": (13, 3, 6),
    "N_prime_divides_N": (12, 3, 8),
    "k_capped": (9, 2, 40),
    "two_byte_table": (26, 2, 300),
}
PHIS = [0.0, 0.1, 0.5, 1.0]


@pytest.fixture
def set_path(monkeypatch):
    """Counts the set path's frozenset calls inside design."""
    calls = []

    def spy(edges):
        calls.append(len(edges))
        return frozenset(edges)

    monkeypatch.setattr(design, "frozenset", spy, raising=False)
    return calls


def plain(base: Partition, x: TaskSet):
    wanted = set(x.edges)
    return tuple(tuple(t for t in g if t in wanted) for g in base.groups)


def test_a_refine_of_a_small_x_takes_the_run_path(set_path):
    n, d, N = 30, 3, 10
    _prime_partition.cache_clear()
    gc.collect()
    base = build_base_partition(derive_parameters(n, d, N))  # a cold build
    for seed, phi in enumerate([0.1, 0.0, 0.2, 0.1]):
        x = thin(n, d, ThinningSpec(phi=phi, seed=seed))
        assert 2 * len(x) < binomial(n, d)
        assert refine(base, x).groups == plain(base, x)
    assert set_path == []


def test_a_refine_of_a_large_x_takes_the_run_path(set_path):
    n, d, N = 30, 3, 10
    base = build_base_partition(derive_parameters(n, d, N))
    for seed, phi in enumerate([0.9, 1.0, 0.8]):
        x = thin(n, d, ThinningSpec(phi=phi, seed=seed))
        assert 2 * len(x) >= binomial(n, d)
        assert refine(base, x).groups == plain(base, x)
    assert set_path == []


@pytest.mark.parametrize("seed", [3, 2**62 + 5])
@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("case", list(CASES))
def test_rank_path_equals_the_set_path(case, phi, seed, set_path):
    n, d, N = CASES[case]
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=phi, seed=seed))
    ranked = refine(base, x)
    assert set_path == []
    # a copy of x has no keep bytes, so it takes the set path
    assert ranked == refine(base, TaskSet(**x.__dict__))
    assert len(set_path) == 1
    assert ranked.groups == plain(base, x)


@pytest.mark.parametrize("n,d,N", [*CASES.values(), (17, 1, 3), (17, 4, 5), (121, 3, 40)])
def test_the_runs_cover_every_rank_once(n, d, N):
    base = build_base_partition(_derive(n, d, N))
    prime = _prime_partition(n, d, base.params.k)
    los, his = map(list, prime.runs)
    assert len(los) == len(his)
    assert all(map(int.__lt__, los, his))
    # no range ends where the next begins, and the ranges tile [0, C(n, d))
    assert not any(map(int.__eq__, his[:-1], los[1:]))
    assert sorted(zip(los, his)) == list(zip([0, *sorted(his)[:-1]], sorted(his)))
    assert sorted(his)[-1] == binomial(n, d)
    # in label order, they list the labels' members
    edges = prime.full.edges
    assert list(chain.from_iterable(edges[lo:hi] for lo, hi in zip(los, his))) == list(
        chain.from_iterable(prime))


def test_a_new_parameter_set_refines_by_its_own_runs(set_path):
    sets = ((12, 2, 8), (13, 2, 6))
    bases = [build_base_partition(derive_parameters(*p)) for p in sets]
    assert bases[0].groups.runs is not bases[1].groups.runs
    for seed in range(2):
        for base, (n, d, _) in zip(bases, sets):  # alternating between the two
            x = thin(n, d, ThinningSpec(phi=0.5, seed=seed))
            assert refine(base, x).groups == plain(base, x)
    assert set_path == []


def test_build_base_partition_gives_each_base_the_construction_runs():
    params = derive_parameters(12, 2, 8)
    bases = [build_base_partition(params) for _ in range(3)]
    runs = _prime_partition(12, 2, params.k).runs
    assert all(base.groups.runs is runs for base in bases)


def test_repeated_thin_and_refine_stay_on_the_rank_path(set_path):
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    for i, phi in enumerate([0.1, 0.9, 0.5, 0.1, 0.5]):
        x = thin(n, d, ThinningSpec(phi=phi, seed=i))
        fp = refine(base, x)
        assert sum(map(len, fp.groups)) == len(x)
    assert set_path == []
    # an equal construction built again takes the run path too
    again = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=0.1, seed=9))
    assert refine(again, x).groups == plain(again, x)
    assert set_path == []


def test_an_evicted_construction_is_not_rebuilt_by_refine(set_path):
    n, d, N = 12, 3, 8
    base = build_base_partition(derive_parameters(n, d, N))
    for other in ((13, 3, 6), (12, 2, 8)):  # two more (n, d, k): the cache holds two
        build_base_partition(derive_parameters(*other))
    built = design._prime_partition.cache_info().misses
    for phi in (0.1, 0.8):
        x = thin(n, d, ThinningSpec(phi=phi, seed=2))
        assert refine(base, x).groups == plain(base, x)
    assert set_path == []
    assert design._prime_partition.cache_info().misses == built


def test_a_stale_memo_takes_the_set_path(set_path):
    n, d, N = 13, 3, 6
    base = build_base_partition(derive_parameters(n, d, N))
    x1 = thin(n, d, ThinningSpec(phi=0.5, seed=1))
    x2 = thin(n, d, ThinningSpec(phi=0.5, seed=2))
    assert refine(base, x1).groups == plain(base, x1)
    assert len(set_path) == 1
    assert refine(base, x2).groups == plain(base, x2)
    assert len(set_path) == 1


def _moved(p: Partition) -> Partition:
    # the first tuple of the first non-empty group moved to the next group
    groups = list(p.groups)
    i = next(i for i, g in enumerate(groups) if g)
    t, groups[i] = groups[i][0], groups[i][1:]
    j = (i + 1) % len(groups)
    groups[j] = tuple(sorted(groups[j] + (t,)))
    return Partition(**{**p.__dict__, "groups": tuple(groups)})


@pytest.mark.parametrize("other", ["parsed", "copy", "moved_tuple", "refined", "no_params"])
def test_a_base_other_than_a_built_construction_takes_the_set_path(other, set_path):
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    parsed = parse_partition(emit_partition(base))
    assert parsed.params == base.params
    given = {
        "parsed": lambda: parsed,
        "copy": lambda: Partition(**base.__dict__),
        "moved_tuple": lambda: _moved(parsed),
        "refined": lambda: refine(base, thin(n, d, ThinningSpec(phi=0.5, seed=7))),
        "no_params": lambda: Partition(**{**parsed.__dict__, "params": None}),
    }[other]()
    x = thin(n, d, ThinningSpec(phi=0.6, seed=8))
    assert refine(given, x).groups == plain(given, x)
    assert len(set_path) == 1


def test_a_parsed_task_set_takes_the_set_path(set_path):
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=0.5, seed=4))
    parsed = parse_tasks(emit_tasks(x))
    assert parsed == x
    assert refine(base, parsed) == refine(base, x)
    assert len(set_path) == 1


def test_the_memo_holds_no_strong_reference_to_the_task_set():
    x = thin(10, 2, ThinningSpec(phi=0.5, seed=1))
    owner, keep = tasks._kept
    assert owner() is x and tasks.kept_ranks(x) is keep
    assert tasks.kept_ranks(TaskSet(**x.__dict__)) is None
    del x
    gc.collect()
    assert owner() is None
    assert tasks._kept[1] is None  # the keep bytes went with it


def test_an_earlier_task_set_freed_leaves_the_latest_memo():
    x1 = thin(10, 2, ThinningSpec(phi=0.5, seed=1))
    held = tasks._kept[0]  # x1's reference outlives the memo, so its callback runs
    x2 = thin(10, 2, ThinningSpec(phi=0.5, seed=2))
    keep = tasks.kept_ranks(x2)
    del x1
    gc.collect()
    assert held() is None
    assert keep is not None and tasks.kept_ranks(x2) is keep


def test_thin_adds_no_field_to_the_task_set():
    x = thin(10, 2, ThinningSpec(phi=0.5, seed=1))
    assert list(x.__dict__) == ["n", "d", "edges", "phi", "seed", "generator_id"]
    assert x == TaskSet(**x.__dict__) and hash(x) == hash(TaskSet(**x.__dict__))


def test_the_footprint_scan_stops_at_its_entry():
    # the second chunk holds a file outside the entry, which a scan that
    # stops once the whole entry is met never reads
    within = (1, 2, 3)
    group = ((1, 2), (2, 3)) * 10_000 + ((3, 9),)
    assert footprint(group, within) is within
    assert footprint(group) == (1, 2, 3, 9)
    assert footprint(group[-1:], within) == (3, 9)  # a scan that never meets all of it
    assert footprint((), within) == ()


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("case", list(CASES))
def test_stopped_scans_give_the_footprint_sizes(case, phi):
    n, d, N = CASES[case]
    base = build_base_partition(derive_parameters(n, d, N))
    assert base.placement == tuple(map(footprint, base.groups))
    fp = refine(base, thin(n, d, ThinningSpec(phi=phi, seed=5)))
    assert design._inside.get(id(fp)) is fp
    assert metrics._footprint_sizes(fp) == [len(footprint(g)) for g in fp.groups]


def test_a_hand_built_partition_with_a_tuple_outside_its_entry_is_scanned_in_full():
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    fp = refine(base, thin(n, d, ThinningSpec(phi=0.5, seed=6)))
    # a group takes, at its end, a tuple of files its entry does not hold
    b = 7
    assert len(set(chain.from_iterable(fp.groups[b]))) == len(fp.placement[b])  # stops early
    outside = tuple(sorted(set(range(1, n + 1)) - set(fp.placement[b]))[:d])
    groups = list(fp.groups)
    groups[b] += (outside,)
    hand = Partition(**{**fp.__dict__, "groups": tuple(groups)})
    sizes = metrics._footprint_sizes(hand)
    assert sizes == [len(footprint(g)) for g in groups]
    assert sizes[b] > len(set(chain.from_iterable(fp.groups[b])))
