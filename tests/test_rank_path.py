"""refine's rank path: an X fresh from thin, refined against a partition that
build_base_partition returned, is dealt out by the construction's group per
lexicographic rank.  It must give exactly what intersecting each group with the
set of X's edges gives, and every other input must take that set path."""

import gc

import pytest

from ic_alloc import design, tasks
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import binomial
from ic_alloc.design import Partition, build_base_partition, derive_parameters, refine
from ic_alloc.formats import emit_partition, emit_tasks, parse_partition, parse_tasks
from ic_alloc.tasks import TaskSet

# (n, d, N): the divisible and non-divisible cases with N = N', split labels
# (N' < N < 2N'), N' | N with two slices per label, k capped at n (empty
# groups), and N > 256, whose table takes 2 bytes a rank.  N' <= N always,
# since k is the largest with C(k, d) <= N.
CASES = {
    "divisible": (12, 2, 6),
    "nondivisible": (13, 2, 6),
    "split_labels": (12, 2, 8),
    "nondivisible_split_d3": (13, 3, 6),
    "N_prime_divides_N": (12, 3, 8),
    "k_capped": (9, 2, 40),
    "two_byte_table": (26, 2, 300),
}


@pytest.fixture(autouse=True)
def no_table(monkeypatch):
    monkeypatch.setattr(design, "_table", (None, None))


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


def test_a_refine_of_a_small_x_takes_the_set_path_and_builds_no_table(set_path):
    base = build_base_partition(derive_parameters(12, 2, 8))
    x = thin(12, 2, ThinningSpec(phi=0.2, seed=1))
    assert 2 * len(x) < binomial(12, 2)
    assert refine(base, x).groups == plain(base, x)
    assert set_path == [len(x)]
    assert design._table == (None, None)


def test_a_refine_of_a_large_x_builds_the_table_and_takes_the_rank_path(set_path):
    base = build_base_partition(derive_parameters(12, 2, 8))
    x = thin(12, 2, ThinningSpec(phi=0.8, seed=1))
    assert 2 * len(x) >= binomial(12, 2)
    assert refine(base, x).groups == plain(base, x)
    assert set_path == []
    assert design._table[0] == base.params


@pytest.mark.parametrize("seed", [3, 2**62 + 5])
@pytest.mark.parametrize("phi", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("case", list(CASES))
def test_rank_path_equals_the_set_path(case, phi, seed, set_path):
    n, d, N = CASES[case]
    params = derive_parameters(n, d, N)
    base = build_base_partition(params)
    refine(base, thin(n, d, ThinningSpec(phi=1.0, seed=seed + 1)))  # builds the table
    x = thin(n, d, ThinningSpec(phi=phi, seed=seed))
    ranked = refine(base, x)
    assert set_path == []
    # a copy of x has no keep bytes, so it takes the set path
    assert ranked == refine(base, TaskSet(**x.__dict__))
    assert len(set_path) == 1
    assert ranked.groups == plain(base, x)
    table = design._table[1]
    assert len(table) == binomial(n, d)
    assert table.itemsize == (1 if N <= 256 else 2)


def test_repeated_thin_and_refine_stay_on_the_rank_path(set_path):
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    for i, phi in enumerate([0.1, 0.9, 0.5, 0.1, 0.5]):
        x = thin(n, d, ThinningSpec(phi=phi, seed=i))
        fp = refine(base, x)
        assert sum(map(len, fp.groups)) == len(x)
    # only the first, too small to pay for the table, took the set path
    assert len(set_path) == 1, "a refine after the table was built fell back to the set path"
    # an equal construction built again takes the rank path with the same table
    table = design._table[1]
    again = build_base_partition(derive_parameters(n, d, N))
    refine(again, thin(n, d, ThinningSpec(phi=0.1, seed=9)))
    assert len(set_path) == 1 and design._table[1] is table


def test_an_evicted_construction_is_not_rebuilt_by_refine(set_path):
    n, d, N = 12, 3, 8
    base = build_base_partition(derive_parameters(n, d, N))
    for other in ((13, 3, 6), (12, 2, 8)):  # two more (n, d, k): the cache holds two
        build_base_partition(derive_parameters(*other))
    built = design._prime_partition.cache_info().misses
    x = thin(n, d, ThinningSpec(phi=0.8, seed=2))
    assert refine(base, x).groups == plain(base, x)
    assert set_path == []
    assert design._prime_partition.cache_info().misses == built


def test_a_new_parameter_set_replaces_the_table():
    for n, d, N in ((12, 2, 8), (13, 2, 6)):
        base = build_base_partition(derive_parameters(n, d, N))
        refine(base, thin(n, d, ThinningSpec(phi=1.0, seed=1)))
        assert design._table[0] == base.params


def _warm(base: Partition, n: int, d: int) -> None:
    # a refine of the whole of X, which builds the table
    refine(base, thin(n, d, ThinningSpec(phi=1.0, seed=101)))


def test_a_stale_memo_takes_the_set_path(set_path):
    n, d, N = 13, 3, 6
    base = build_base_partition(derive_parameters(n, d, N))
    _warm(base, n, d)
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
    _warm(base, n, d)
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
    _warm(base, n, d)
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


def test_build_base_partition_never_builds_the_table():
    params = derive_parameters(12, 2, 8)
    for _ in range(3):
        build_base_partition(params)
    assert design._table == (None, None)
