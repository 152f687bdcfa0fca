"""Shared fixtures: the full small-parameter grid, evaluated once, and the
per-tuple support classifier the counting and construction checks share."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import pytest

from ic_alloc.combinatorics import binomial
from ic_alloc.design import build_base_partition, derive_parameters
from ic_alloc.errors import UnsupportedParameters

GRID_N_MAX = 60
GRID_D = (2, 3)
GRID_WORKERS_MAX = 40


@dataclass(frozen=True)
class GridPoint:
    n: int
    d: int
    N: int
    case: str
    k: int
    family_size: int
    g: int
    k_capped: bool
    N_prime: int
    valid: bool
    pi: int
    size_bound_ok: bool
    arf: float


def _evaluate(n: int, d: int, N: int) -> GridPoint | None:
    try:
        params = derive_parameters(n, d, N)
    except UnsupportedParameters:
        return None
    base = build_base_partition(params)
    cnd = binomial(n, d)
    total = sum(len(g) for g in base.groups)
    distinct = len({t for g in base.groups for t in g})
    valid = total == cnd and distinct == cnd

    pi = max(len(f) for f in base.placement)
    slack = (2**d - d) if params.case == "divisible" else (2 ** (d + 1) - 2 * d)
    N_prime = params.N_prime  # group b's slices are groups b, b + N', b + 2N', ...
    size_bound_ok = all(
        abs(sum(map(len, base.groups[b::N_prime])) * N_prime - cnd) <= slack * N_prime
        for b in range(N_prime)
    )
    arf = sum(len(f) for f in base.placement) / n
    return GridPoint(
        n=n,
        d=d,
        N=N,
        case=params.case,
        k=params.k,
        family_size=params.family_size,
        g=params.g,
        k_capped=params.k_capped,
        N_prime=params.N_prime,
        valid=valid,
        pi=pi,
        size_bound_ok=size_bound_ok,
        arf=arf,
    )


@pytest.fixture(scope="session")
def grid_sweep() -> tuple[list[GridPoint], float]:
    """Every supported (n <= 60, d in {2,3}, N <= 40) point, evaluated,
    plus the wall-clock seconds the evaluation took."""
    start = time.perf_counter()
    points = []
    for d in GRID_D:
        for n in range(max(2, d), GRID_N_MAX + 1):
            for N in range(1, GRID_WORKERS_MAX + 1):
                gp = _evaluate(n, d, N)
                if gp is not None:
                    points.append(gp)
    return points, time.perf_counter() - start


@pytest.fixture(scope="session")
def grid_points(grid_sweep) -> list[GridPoint]:
    return grid_sweep[0]


def acceptance_line(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")


def support_classes(
    n: int, d: int, s: int, g: int = 0
) -> dict[tuple[bool, tuple[int, ...]], list[tuple[int, ...]]]:
    """Classify every d-tuple over [n], one at a time, by (touches_tail,
    support): whether it has an element in the excluded tail (the top g
    files), and the 1-based indices of the size-s families tiling
    [1, n - g] that it touches.  Each class lists its tuples in
    lexicographic order."""
    n_prime = n - g
    classes: dict[tuple[bool, tuple[int, ...]], list[tuple[int, ...]]] = {}
    for t in combinations(range(1, n + 1), d):
        support = tuple(sorted({(x - 1) // s + 1 for x in t if x <= n_prime}))
        classes.setdefault((t[-1] > n_prime, support), []).append(t)
    return classes


def counts_by_beta(n: int, d: int, s: int) -> dict[int, int]:
    """Tuple counts of the complete set over [n] by the number beta of
    size-s families each tuple touches."""
    by_beta: Counter[int] = Counter()
    for (_, support), members in support_classes(n, d, s).items():
        by_beta[len(support)] += len(members)
    return dict(by_beta)
