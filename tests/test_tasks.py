"""TaskSet validation at the input boundary: from_edges rejects malformed
edges, and the producers that build a TaskSet directly stay canonical."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ic_alloc import combinatorics
from ic_alloc.baselines import ThinningSpec, thin
from ic_alloc.combinatorics import validate_dtuple
from ic_alloc.design import partition_from_groups
from ic_alloc.errors import DuplicateEdge, InvalidDimensions
from ic_alloc.formats import emit_tasks, parse_tasks
from ic_alloc.tasks import TaskSet


@pytest.mark.parametrize(
    "n,d,edges,error",
    [
        (5, 2, [(1, 2, 3)], InvalidDimensions),  # edge longer than d
        (5, 2, [(1, 2), (4,)], InvalidDimensions),  # edge shorter than d
        (5, 2, [()], InvalidDimensions),  # empty edge
        (5, 2, [(3, 1)], InvalidDimensions),  # descending
        (5, 2, [(2, 2)], InvalidDimensions),  # repeated element
        (5, 2, [(0, 1)], InvalidDimensions),  # element 0
        (5, 2, [(1, 6)], InvalidDimensions),  # element n + 1
        (5, 2, [(1, 2), (3, 4), [1, 2]], DuplicateEdge),
        (5, 0, [], InvalidDimensions),  # d < 1
        (5, 6, [], InvalidDimensions),  # d > n
        (5, 6, [(1, 2, 3, 4, 5)], InvalidDimensions),
    ],
    ids=[
        "too-long", "too-short", "empty-edge", "descending", "repeated-element",
        "element-0", "element-n+1", "duplicate-edge", "d-0", "d-above-n",
        "d-above-n-with-edge",
    ],
)
def test_from_edges_rejects_malformed_input(n, d, edges, error):
    with pytest.raises(error):
        TaskSet.from_edges(n, d, edges)


@pytest.mark.parametrize(
    "tasks",
    [
        thin(9, 3, ThinningSpec(phi=0.4, seed=11)),
        thin(7, 2, ThinningSpec(phi=0.0, seed=3)),
        TaskSet.full(6, 2),
        TaskSet.full(4, 4),
        parse_tasks(emit_tasks(thin(8, 2, ThinningSpec(phi=0.5, seed=5)))),
        parse_tasks("3 2 3\n2 3\n1 3\n1 2\n"),  # listed out of order
    ],
    ids=["thin", "thin-empty", "full", "full-d=n", "parse-emit", "parse-unsorted"],
)
def test_trusted_producers_are_canonical(tasks):
    assert tasks.edges == TaskSet.from_edges(tasks.n, tasks.d, tasks.edges).edges


def edge_by_edge_from_edges(n, d, edges):
    # from_edges as it was before it checked a batch at once: the reference
    canon = sorted(validate_dtuple(e, n, d) for e in edges)
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise DuplicateEdge(f"edge {a} listed twice")
    return TaskSet(n, d, tuple(canon))


def edge_by_edge_groups(n, d, groups):
    # partition_from_groups' check of its groups, edge by edge: the reference
    checked = tuple(tuple(validate_dtuple(t, n, d) for t in g) for g in groups)
    edge_by_edge_from_edges(n, d, [t for g in checked for t in g])  # a tuple listed twice
    return checked


# each kind turns a valid edge e over [1, n] into what the batch holds
EDGE_KINDS = {
    "valid": lambda e, n: e,
    "long": lambda e, n: e + (n,),
    "short": lambda e, n: e[:-1],  # the empty tuple when d = 1
    "empty": lambda e, n: (),
    "bool": lambda e, n: (True,) + e[1:],
    "float": lambda e, n: (float(e[0]),) + e[1:],
    "str": lambda e, n: e[:-1] + (str(e[-1]),),
    "descending": lambda e, n: e[::-1],
    "repeated": lambda e, n: (e[0],) * len(e),
    "zero": lambda e, n: (0,) + e[1:],
    "above-n": lambda e, n: e[:-1] + (n + 1,),
    "not-iterable": lambda e, n: e[0],
    "list": lambda e, n: list(e),
    "generator": lambda e, n: (x for x in e),
}


@st.composite
def edge_batches(draw):
    """(n, d, recipe, cut): valid edges with bad ones of every kind at random
    positions, as a recipe, since a generator edge can be read only once; and
    where to cut them into two groups."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, min(4, n)))
    pool = list(combinations(range(1, n + 1), d))
    recipe = [("valid", e) for e in draw(st.lists(st.sampled_from(pool), max_size=20, unique=True))]
    for kind in draw(st.lists(st.sampled_from(sorted(EDGE_KINDS) + ["duplicate"]), max_size=4)):
        if kind == "duplicate":
            kind, e = draw(st.sampled_from(recipe or [("valid", pool[0])]))
        else:
            e = draw(st.sampled_from(pool))
        recipe.insert(draw(st.integers(0, len(recipe))), (kind, e))
    return n, d, recipe, draw(st.integers(0, len(recipe)))


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_batches())
# a generator edge read by the batch check, then a non-iterable edge
@example((5, 2, [("generator", (1, 2)), ("not-iterable", (3, 4))], 2))
def test_batch_check_matches_edge_by_edge_check(batch):
    n, d, recipe, cut = batch

    def edges():
        return [EDGE_KINDS[kind](e, n) for kind, e in recipe]

    def groups():  # the same edges as two groups of a hand-written partition
        return edges()[:cut], edges()[cut:]

    assert outcome(TaskSet.from_edges, n, d, edges()) == outcome(
        edge_by_edge_from_edges, n, d, edges())
    assert outcome(lambda: partition_from_groups(n, d, groups()).groups) == outcome(
        edge_by_edge_groups, n, d, groups())


def test_a_valid_batch_is_not_checked_edge_by_edge(monkeypatch):
    calls = []

    def counted(t, n, d):
        calls.append(t)
        return validate_dtuple(t, n, d)

    monkeypatch.setattr(combinatorics, "validate_dtuple", counted)
    edges = sorted(random.Random(5).sample(list(combinations(range(1, 41), 3)), 1024))
    assert TaskSet.from_edges(40, 3, edges).edges == tuple(edges)
    assert calls == []
    # one bad edge at index 700 raises its own error, from the edge-by-edge pass
    edges[700] = (edges[700][0], 0, edges[700][2])
    with pytest.raises(InvalidDimensions) as exc:
        TaskSet.from_edges(40, 3, edges)
    assert str(exc.value) == f"elements must be strictly increasing: {edges[700]}"
    assert len(calls) == 701
