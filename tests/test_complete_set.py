"""The complete set the construction is cut from: while a construction's
cache entry holds it, TaskSet.full returns it and thin selects its tuple
objects; once the entry is gone it dies, so the next build is cold."""

import gc
import tracemalloc
import weakref

import pytest

from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.design import _derive, _prime_partition, build_base_partition, derive_parameters
from ic_alloc.tasks import TaskSet, _complete


def _no_complete_set(n, d):
    """Clear the construction cache, as the benchmark does before a cold
    build, and check that no complete set of (n, d) is left alive."""
    _prime_partition.cache_clear()
    gc.collect()
    assert _complete.get((n, d)) is None


@pytest.mark.parametrize("d,N", [(1, 3), (2, 6), (3, 5), (4, 5)])
def test_thin_is_the_same_with_and_without_a_live_construction(d, N):
    n = 17
    specs = [ThinningSpec(phi, seed) for seed, phi in enumerate((0.0, 0.3, 1.0))]
    _no_complete_set(n, d)
    streamed = [thin(n, d, spec) for spec in specs]
    base = build_base_partition(_derive(n, d, N))
    full = TaskSet.full(n, d)
    assert _prime_partition(n, d, base.params.k).full is full
    assert [thin(n, d, spec) for spec in specs] == streamed
    assert thin(n, d, specs[2]).edges == full.edges


def test_thin_beside_a_construction_selects_its_tuple_objects():
    params = derive_parameters(30, 3, 10)
    base = build_base_partition(params)
    x = thin(30, 3, ThinningSpec(0.5, 7))
    own = {t: t for g in base.groups for t in g}
    assert len(x) > 1000
    assert all(own[t] is t for t in x.edges)


def test_thin_beside_a_construction_allocates_no_tuples():
    # Streaming, X allocates a 64-byte tuple and an 8-byte reference per kept
    # tuple (about 74 B with the keep bytes); selecting the live set's tuples
    # leaves the references and the keep bytes, about 10 B per kept tuple
    base = build_base_partition(derive_parameters(48, 3, 20))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = thin(48, 3, ThinningSpec(0.5, 11))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert base.N == 20 and len(x) > 8000
    assert kept < 20 * len(x)


def test_full_returns_the_live_complete_set():
    full = TaskSet.full(19, 3)
    assert TaskSet.full(19, 3) is full
    base = build_base_partition(derive_parameters(19, 3, 4))
    assert base.groups[0][0] is full.edges[0]
    assert _prime_partition(19, 3, base.params.k).full is full


def test_a_cold_build_cuts_a_new_complete_set():
    # perfbench's cold set-up: clear the cache, drop every base, collect
    params = derive_parameters(40, 3, 10)
    _no_complete_set(40, 3)
    base = build_base_partition(params)
    old = weakref.ref(TaskSet.full(40, 3))
    assert old() is not None
    _prime_partition.cache_clear()
    del base
    gc.collect()
    assert old() is None
    misses = _prime_partition.cache_info().misses
    base = build_base_partition(params)
    assert _prime_partition.cache_info().misses == misses + 1
    assert base.groups[0][0] is TaskSet.full(40, 3).edges[0]


def test_thin_streams_once_the_construction_is_evicted():
    params = derive_parameters(26, 3, 7)
    _no_complete_set(26, 3)
    spec = ThinningSpec(0.6, 5)
    streamed = thin(26, 3, spec)
    base = build_base_partition(params)
    live = thin(26, 3, spec)
    for other in ((27, 3, 6), (26, 2, 8)):  # two more (n, d, k): the cache holds two
        build_base_partition(derive_parameters(*other))
    gc.collect()
    assert _complete.get((26, 3)) is None
    evicted = thin(26, 3, spec)
    assert evicted == live == streamed
    own = {t: t for g in base.groups for t in g}
    assert all(own[t] is t for t in live.edges)
    assert not any(own[t] is t for t in evicted.edges)
