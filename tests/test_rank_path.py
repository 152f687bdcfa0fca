"""refine's run path: an X holding thin's keep bytes, refined against the
groups build_base_partition marked with their rank runs, is dealt out by those
bytes joined along the runs, whatever the groups are placed on.  It must give
exactly what intersecting each group with the set of X's edges gives, and every
other input must take that set path.  The facts that pick the path travel on
the values, so every thinned X, however old, takes the run path, a copy of a
construction too, while a copied or unpickled X holds no keep bytes.  A
construction and every refine of it have their footprint sizes from scans that
stop at each group's placement entry, which must equal the full scans; a mark
beside any other placement is not trusted.  No module keeps a registry keyed by
identity, and no module but design reads a mark.  The run path's groups, and a
thinned X's edges, are kept selections (tasks._Kept) that read as the tuples they
make on first use, and a blind round (thin, refine, its report) makes none."""

import ast
import copy
import gc
import pickle
import random
import tracemalloc
from itertools import accumulate, chain, compress
from pathlib import Path
from struct import unpack_from

import pytest

from ic_alloc import design
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import binomial
from ic_alloc.design import (
    Partition, _derive, _prime_partition, build_base_partition, derive_parameters, footprint,
    refine,
)
from ic_alloc.baselines import lex_partition
from ic_alloc.formats import emit_partition, emit_tasks, parse_partition, parse_tasks
from ic_alloc.harness import monte_carlo_delta, simulate_rounds
from ic_alloc.metrics import delta_of, full_report, pi_of
from ic_alloc.tasks import TaskSet, _Kept
from ic_alloc.verify import run_invariant_checks

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


def _ranges(runs):
    """A gather's rank ranges in label order, as lists of starts and ends: its format's fields
    cut the ranks in rank order after an empty one, and its picker lists them in label order."""
    form, pick = runs
    ends = list(accumulate(map(int, form.split("s")[:-1])))
    fields = pick.__reduce__()[1]
    assert ends[0] == fields[0] == 0
    return [ends[f - 1] for f in fields[1:]], [ends[f] for f in fields[1:]]


RUN_CASES = [*CASES.values(), (17, 1, 3), (17, 4, 5), (121, 3, 40)]


@pytest.mark.parametrize("n,d,N", RUN_CASES)
def test_the_runs_cover_every_rank_once(n, d, N):
    base = build_base_partition(_derive(n, d, N))
    prime = _prime_partition(n, d, base.params.k)
    los, his = _ranges(prime.runs)
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
    # so do the construction's groups, label b0's slices b0 + j * N' one after another, each
    # from its start: the length of the groups before it in that order
    groups = base.groups
    order = sorted(range(base.N), key=lambda b: (b % base.params.N_prime, b))
    assert list(chain.from_iterable(groups[b] for b in order)) == list(chain.from_iterable(prime))
    assert [groups.starts[b] for b in order] == list(
        accumulate((len(groups[b]) for b in order[:-1]), initial=0))


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("n,d,N", RUN_CASES)
def test_the_gather_reads_each_member_keep_byte_in_label_order(n, d, N, phi, set_path):
    # k_capped is one run: a picker of one field alone would return that field, not a tuple
    base = build_base_partition(_derive(n, d, N))
    prime = _prime_partition(n, d, base.params.k)
    x = thin(n, d, ThinningSpec(phi=phi, seed=11))
    form, pick = prime.runs
    gathered = b"".join(pick(unpack_from(form, x.keep)))
    assert gathered == b"".join(x.keep[lo:hi] for lo, hi in zip(*_ranges(prime.runs)))
    rank = {t: r for r, t in enumerate(prime.full.edges)}
    assert gathered == bytes(x.keep[rank[t]] for t in chain.from_iterable(prime))
    assert refine(base, x) == refine(base, TaskSet(**x.__dict__))
    assert len(set_path) == 1  # the copy alone, which holds no keep bytes


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


def test_an_earlier_task_set_takes_the_run_path(set_path):
    n, d, N = 13, 3, 6
    base = build_base_partition(derive_parameters(n, d, N))
    xs = [thin(n, d, ThinningSpec(phi=0.5, seed=seed)) for seed in range(3)]
    for x in reversed(xs):
        assert refine(base, x).groups == plain(base, x)
    assert set_path == []


_ROUND_TRIPS = {
    "fields": lambda v: type(v)(**v.__dict__),
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", list(_ROUND_TRIPS))
def test_a_copied_construction_takes_the_run_path(trip, set_path):
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    given = _ROUND_TRIPS[trip](base)
    x = thin(n, d, ThinningSpec(phi=0.6, seed=8))
    assert refine(given, x).groups == plain(base, x)
    assert set_path == []


def _moved(p: Partition) -> Partition:
    # the first tuple of the first non-empty group moved to the next group
    groups = list(p.groups)
    i = next(i for i, g in enumerate(groups) if g)
    t, groups[i] = groups[i][0], groups[i][1:]
    j = (i + 1) % len(groups)
    groups[j] = tuple(sorted(groups[j] + (t,)))
    return Partition(**{**p.__dict__, "groups": tuple(groups)})


@pytest.mark.parametrize("other", [
    "parsed", "moved_tuple", "refined", "no_params", "copy_without_params",
])
def test_a_base_other_than_a_built_construction_takes_the_set_path(other, set_path):
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    parsed = parse_partition(emit_partition(base))
    assert parsed.params == base.params
    given = {
        "parsed": lambda: parsed,
        "moved_tuple": lambda: _moved(parsed),
        "refined": lambda: refine(base, thin(n, d, ThinningSpec(phi=0.5, seed=7))),
        "no_params": lambda: Partition(**{**parsed.__dict__, "params": None}),
        # the construction's own groups and placement: it may take either path
        "copy_without_params": lambda: Partition(**{**base.__dict__, "params": None}),
    }[other]()
    x = thin(n, d, ThinningSpec(phi=0.6, seed=8))
    assert refine(given, x).groups == plain(given, x)
    if other == "copy_without_params":
        assert given.groups is base.groups
    else:
        assert len(set_path) == 1


def test_a_construction_beside_another_placement_takes_the_run_path(set_path):
    # the runs cut the groups whatever they are placed on, but the refine is not
    # marked inside a placement the groups were not marked inside
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    parsed = parse_partition(emit_partition(base))
    given = Partition(**{**base.__dict__, "placement": parsed.placement})
    x = thin(n, d, ThinningSpec(phi=0.6, seed=8))
    fp = refine(given, x)
    assert set_path == []
    assert fp.groups == plain(given, x)
    assert not hasattr(fp.groups, "inside")
    assert design.footprint_sizes(fp) == [len(footprint(g)) for g in fp.groups]


def test_a_parsed_task_set_takes_the_set_path(set_path):
    n, d, N = 12, 2, 8
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=0.5, seed=4))
    parsed = parse_tasks(emit_tasks(x))
    assert parsed == x
    assert refine(base, parsed) == refine(base, x)
    assert len(set_path) == 1


def test_the_keep_bytes_are_freed_with_the_task_set():
    n, d = 121, 3
    build_base_partition(derive_parameters(n, d, 40))  # X selects the complete set's tuples
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = thin(n, d, ThinningSpec(phi=0.5, seed=1))
        assert len(x.keep) == 288_768  # C(121, 3) = 287,980 rounded up to 1024
        assert tracemalloc.get_traced_memory()[0] - before > len(x.keep)
        del x
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 288_768 // 4
    finally:
        tracemalloc.stop()


def test_thin_adds_no_field_to_the_task_set():
    x = thin(10, 2, ThinningSpec(phi=0.5, seed=1))
    assert list(x.__dict__) == ["n", "d", "edges", "phi", "seed", "generator_id"]
    fields = TaskSet(**x.__dict__)
    assert x == fields and hash(x) == hash(fields) and repr(x) == repr(fields)
    assert not hasattr(fields, "keep")


@pytest.mark.parametrize("trip", list(_ROUND_TRIPS))
def test_pickle_and_copy_round_trips_keep_each_value_and_its_refine(trip):
    n, d, N = 13, 3, 6
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=0.5, seed=3))
    fp = refine(base, x)
    again = _ROUND_TRIPS[trip]
    x2, base2, fp2 = again(x), again(base), again(fp)
    assert (x2, base2, fp2) == (x, base, fp)
    assert refine(base, x2).groups == fp.groups
    assert refine(base2, x).groups == fp.groups
    assert refine(fp2, x).groups == refine(fp, x).groups == fp.groups
    assert design.footprint_sizes(fp2) == design.footprint_sizes(fp)


def test_no_module_keeps_a_registry_keyed_by_identity():
    found = []
    for path in sorted((Path(design.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, "id") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id"]
        for node in tree.body:  # module level
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Call) and "WeakValueDictionary" in ast.unparse(value.func):
                found += [(path.name, ast.unparse(target))
                          for target in getattr(node, "targets", [getattr(node, "target", None)])]
    assert found == [("tasks.py", "_complete")]  # the complete-set cache, no path switch


def test_design_alone_reads_the_marks():
    # the marks that make blindness verifiable are set and read in one module
    marks, found = {"of", "inside", "runs", "labels", "starts"}, []
    for path in sorted((Path(design.__file__).parent).glob("*.py")):
        if path.name == "design.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in marks:
                found.append((path.name, node.lineno))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in {"getattr", "hasattr", "setattr"} and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant) and node.args[1].value in marks):
                found.append((path.name, node.lineno))
    assert found == []


def test_the_footprint_scan_stops_at_its_entry():
    # the last tuple holds a file outside the entry; the first batch, spread
    # over the group, meets the whole entry, so the scan never reads that tuple
    within = (1, 2, 3)
    group = ((1, 2), (2, 3)) * 10_000 + ((3, 9),)
    assert footprint(group, within) is within
    assert footprint(group) == (1, 2, 3, 9)
    assert footprint(group[-1:], within) == (3, 9)  # a scan that never meets all of it
    assert footprint((), within) == ()


class _Counted(tuple):
    """A group that counts the tuples its slices hand out."""

    read = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.read += len(out)
        return out


def test_each_footprint_check_follows_tuples_spread_over_the_group():
    # the first 256 tuples in a row miss file 3, which every other tuple holds
    within = (1, 2, 3)
    group = _Counted(((1, 2),) * 256 + ((2, 3),) * 256)
    assert footprint(group, within) is within
    assert group.read <= 256


@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
def test_the_scans_of_a_refine_stop_after_a_few_batches(phi):
    # a scan of 256 tuples in a row read 16,998 or more of these X's tuples
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    fp = refine(base, thin(n, d, ThinningSpec(phi=phi, seed=9)))
    groups = [_Counted(g) for g in fp.groups]
    sizes = [len(footprint(g, h)) for g, h in zip(groups, fp.placement)]
    assert sizes == [len(footprint(g)) for g in fp.groups]
    assert sum(g.read for g in groups) <= 12_000


@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
def test_a_refine_of_a_refine_stops_its_scans(phi):
    # scans of every tuple read 14,468 or more of these groups' tuples
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    once = refine(base, thin(n, d, ThinningSpec(phi=phi, seed=9)))
    twice = refine(once, thin(n, d, ThinningSpec(phi=0.5, seed=10)))
    assert twice.groups.inside is twice.placement is base.placement
    assert design.footprint_sizes(twice) == [len(footprint(g)) for g in twice.groups]
    groups = [_Counted(g) for g in twice.groups]
    assert [len(footprint(g, h)) for g, h in zip(groups, twice.placement)] == list(
        map(len, map(footprint, twice.groups)))
    assert sum(g.read for g in groups) <= 12_000


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("case", list(CASES))
def test_stopped_scans_give_the_footprint_sizes(case, phi):
    n, d, N = CASES[case]
    base = build_base_partition(derive_parameters(n, d, N))
    assert base.placement == tuple(map(footprint, base.groups))
    assert design.footprint_sizes(base) == list(map(len, base.placement))
    x = thin(n, d, ThinningSpec(phi=phi, seed=5))
    # a parsed X takes the set path, and its refine is marked all the same
    for given in [x, parse_tasks(emit_tasks(x))] if phi == 0.5 else [x]:
        fp = refine(base, given)
        assert fp.groups.inside is fp.placement
        assert design.footprint_sizes(fp) == [len(footprint(g)) for g in fp.groups]


@pytest.mark.parametrize("marked", ["construction", "refine"])
def test_a_mark_beside_another_placement_is_not_trusted(marked):
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=1.0, seed=0))
    p = base if marked == "construction" else refine(base, x)
    # entry 5 holds only the files of its group's first batch, every step-th tuple from the
    # first, which a scan stopping at the entry would meet first; its size would be short too
    step = -(-len(p.groups[5]) // 256)
    first = footprint(p.groups[5][::step])
    q = Partition(**{**p.__dict__, "placement": (*p.placement[:5], first, *p.placement[6:])})
    full = [len(footprint(g)) for g in q.groups]
    assert len(first) < full[5] == len(p.placement[5])
    assert design.footprint_sizes(q) == full
    assert design.footprint_sizes(refine(q, x)) == full


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
    sizes = design.footprint_sizes(hand)
    assert sizes == [len(footprint(g)) for g in groups]
    assert sizes[b] > len(set(chain.from_iterable(fp.groups[b])))


def _behaves_as(fresh, made: tuple):
    """Every operation on a kept selection not yet made, from fresh(), against its tuple."""
    other = made + ((0,),)
    assert fresh() == made and made == fresh() and fresh() == fresh()
    assert not fresh() != made and fresh() != other and other != fresh()
    assert hash(fresh()) == hash(made) and len(fresh()) == len(made)
    for i in {0, len(made) // 2, -1} if made else ():
        assert fresh()[i] == made[i]
    for cut in (slice(1, 5), slice(None, None, 3), slice(None, None, -2)):
        assert type(fresh()[cut]) is tuple and fresh()[cut] == made[cut]
    assert list(fresh()) == list(made) and list(reversed(fresh())) == list(reversed(made))
    assert all(t in fresh() for t in made[:3]) and (0,) not in fresh()
    for total in (fresh() + made, made + fresh(), fresh() + fresh()):
        assert type(total) is tuple and total == made + made
    for times in (0, 2):
        for repeated in (fresh() * times, times * fresh()):
            assert type(repeated) is tuple and repeated == made * times
    assert fresh() <= made <= fresh() and fresh() >= made >= fresh()
    assert not fresh() < made and not made < fresh() and not fresh() > made
    assert fresh() < other and other > fresh() and fresh() <= other and not fresh() >= other
    assert sorted([other, fresh(), fresh()]) == [made, made, other]
    assert repr(fresh()) == repr(made)
    again = pickle.loads(pickle.dumps(fresh()))
    assert type(again) is tuple and again == made


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("case", list(CASES))
def test_the_kept_groups_and_x_behave_as_tuples(case, phi):
    n, d, N = CASES[case]
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=phi, seed=3))
    fp = refine(base, x)
    assert type(x.edges) is _Kept and {type(g) for g in fp.groups} == {_Kept}
    kept = [(x.edges.base, x.edges.keep)] + [(g.base, g.keep) for g in fp.groups]
    edges = tuple(compress(TaskSet.full(n, d).edges, x.keep))
    groups = plain(base, x)
    for (b, k), made in zip(kept, (edges, *groups)):
        _behaves_as(lambda: _Kept(b, k), made)
    # the values themselves, made by these readers
    eager = Partition(**{**fp.__dict__, "groups": groups})
    assert emit_partition(fp) == emit_partition(eager)
    assert run_invariant_checks(fp) == run_invariant_checks(eager)
    made_x = TaskSet(**{**x.__dict__, "edges": edges})
    assert lex_partition(x, N) == lex_partition(made_x, N)
    assert emit_tasks(x) == emit_tasks(made_x) and x == made_x and hash(x) == hash(made_x)
    sample = min(16, len(x))
    assert random.Random(1).sample(x.edges, sample) == random.Random(1).sample(edges, sample)
    trip = pickle.loads(pickle.dumps((x, fp)))
    assert type(trip[0].edges) is tuple and {type(g) for g in trip[1].groups} <= {tuple}
    assert trip == (x, fp)


@pytest.fixture
def made(monkeypatch):
    """The length of each kept selection made into a tuple, in order."""
    calls, make = [], _Kept.made

    def spy(self):
        if self.keep is not None:
            calls.append(len(self))
        return make(self)

    monkeypatch.setattr(_Kept, "made", spy)
    return calls


@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
def test_a_blind_round_makes_no_tuple(phi, made):
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    x = thin(n, d, ThinningSpec(phi=phi, seed=9))
    fp = refine(base, x)
    report, pi, delta = full_report(fp), pi_of(fp), delta_of(fp)
    assert len(x) == sum(map(len, fp.groups)) and type(x.edges) is _Kept
    assert made == []
    # one group read makes that group's tuple alone
    group = list(fp.groups[3])
    assert made == [len(group)]
    assert group == list(plain(base, x)[3])
    eager = Partition(**{**fp.__dict__, "groups": tuple(map(tuple, fp.groups))})
    assert (report, pi, delta) == (full_report(eager), pi_of(eager), delta_of(eager))


def test_monte_carlo_makes_no_tuple(made):
    summary = monte_carlo_delta(121, 3, 40, 0.5, 2, 7)
    assert summary.trials == 2 and made == []


def test_simulate_rounds_makes_no_tuple(made):
    # its feasibility check reads each refined group unmade, as the reports do
    result = simulate_rounds(121, 3, 40, [ThinningSpec(phi=0.5, seed=s) for s in (1, 2)])
    assert result.verdict == "PASS" and len(result.reports) == 2 and made == []


def test_len_counts_the_keep_bytes_of_the_complete_set_alone():
    # thin pads its keep bytes to a multiple of 1024 ranks, and draws the padding too
    n, d = 121, 3
    assert binomial(n, d) == 287_980 == 281 * 1024 + 236
    build_base_partition(derive_parameters(n, d, 40))  # X selects the complete set's tuples
    x = thin(n, d, ThinningSpec(phi=1.0, seed=4))
    assert x.keep == b"\1" * 282 * 1024
    assert len(x) == len(x.edges) == 287_980
    assert x.edges == TaskSet.full(n, d).edges
    half = thin(n, d, ThinningSpec(phi=0.5, seed=4))
    assert half.keep.count(1) > half.keep.count(1, 0, 287_980)
    assert len(half) == len(tuple(half.edges))


def test_a_full_scan_does_not_stop_at_a_batch_that_keeps_nothing():
    # 257 of 600 tuples kept, all at odd positions: step 2, and batch 0 keeps nothing
    tuples = tuple((i, i + 1) for i in range(1, 601))
    keep = bytes(i % 2 and i < 2 * 257 for i in range(600))
    group = _Kept(tuples, keep)
    assert len(group) == 257
    assert footprint(group) == footprint(tuple(compress(tuples, keep))) == tuple(range(2, 516))


class _KeptReads(_Counted):
    """A base group that counts the base tuples its slices hand to a scan (read), and of those
    the kept ones (kept)."""

    kept = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.kept += self.keep[key].count(1)
        return super().__getitem__(key)


@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
def test_the_scans_of_a_kept_refine_stop_after_a_few_batches(phi):
    # full scans would read every kept tuple: 29,015 / 144,137 / 259,168; strides set by the
    # kept count, not the base's, read 98,752 / 22,096 / 14,498 base tuples
    n, d, N = 121, 3, 40
    base = build_base_partition(derive_parameters(n, d, N))
    fp = refine(base, thin(n, d, ThinningSpec(phi=phi, seed=9)))
    bases = [_KeptReads(g.base) for g in fp.groups]
    for b, g in zip(bases, fp.groups):
        b.keep = g.keep
    groups = [_Kept(b, g.keep) for b, g in zip(bases, fp.groups)]
    sizes = [len(footprint(g, h)) for g, h in zip(groups, fp.placement)]
    assert sizes == [len(footprint(tuple(g))) for g in fp.groups]
    assert sum(b.kept for b in bases) <= 14_000
    assert sum(b.read for b in bases) <= {0.1: 80_000, 0.5: 19_500, 0.9: 11_500}[phi]
