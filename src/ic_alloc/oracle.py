"""Independent ground truth at tiny scale: exhaustive optimal
communication cost via branch and bound."""

from __future__ import annotations

from .combinatorics import DTuple, binomial
from .counting import pi_lower_bound_int
from .design import footprint
from .errors import InstanceTooLarge, InvalidArgument
from .tasks import TaskSet

DEFAULT_EDGE_CAP = 16
DEFAULT_WORKER_CAP = 4


def brute_force_pi_star(
    tasks: TaskSet,
    N: int,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> tuple[int, list[list[DTuple]]]:
    """Exact minimum over all N-way partitions of X of the maximum group
    footprint, with a witness partition achieving it.

    Edges are assigned in lexicographic order; a branch is pruned once its
    running maximum footprint reaches the incumbent; group relabelling is
    broken by allowing a new group only at the lowest unused index; the
    integer converse bound serves as the stopping floor.
    """
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    if len(tasks.edges) > edge_cap:
        raise InstanceTooLarge(
            f"|X| = {len(tasks.edges)} exceeds edge cap {edge_cap}"
        )
    if N > DEFAULT_WORKER_CAP:
        raise InstanceTooLarge(f"N = {N} exceeds worker cap {DEFAULT_WORKER_CAP}")
    edges = tasks.edges
    if not edges:
        return 0, [[] for _ in range(N)]

    masks = [sum(1 << (x - 1) for x in t) for t in edges]
    phi = len(edges) / binomial(tasks.n, tasks.d)
    floor = pi_lower_bound_int(tasks.n, tasks.d, N, phi)

    best = len(footprint(edges)) + 1  # beaten by any partition
    best_assign: list[int] = []
    assign = [0] * len(edges)
    group_masks = [0] * N

    def dfs(i: int, used: int, cur_max: int) -> None:
        nonlocal best, best_assign
        if cur_max >= best:
            return
        if i == len(edges):
            best = cur_max
            best_assign = assign[:i]
            return
        limit = min(used + 1, N)  # a fresh group only at the lowest unused index
        for b in range(limit):
            old = group_masks[b]
            new = old | masks[i]
            group_masks[b] = new
            assign[i] = b
            dfs(i + 1, max(used, b + 1), max(cur_max, new.bit_count()))
            group_masks[b] = old
            if best <= floor:
                return

    dfs(0, 0, 0)
    witness: list[list[DTuple]] = [[] for _ in range(N)]
    for i, b in enumerate(best_assign):
        witness[b].append(edges[i])
    return best, witness

