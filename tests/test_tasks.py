"""TaskSet validation at the input boundary: from_edges rejects malformed
edges, and the producers that build a TaskSet directly stay canonical."""

import pytest

from ic_alloc.baselines import ThinningSpec, thin
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
