"""Shared fixtures: the full small-parameter grid, evaluated once, the
per-tuple support classifier the counting and construction checks share,
and the line-by-line task-file reader the parser is checked against."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import lt

import pytest

from ic_alloc.combinatorics import binomial
from ic_alloc.design import build_base_partition, derive_parameters
from ic_alloc.errors import DuplicateEdge, IndexOutOfBounds, ParseError, UnsupportedParameters
from ic_alloc.tasks import TaskSet

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


_TASK_META_TYPES = {"phi": float, "seed": int, "generator": str}


def _reference_parse_tasks(text: str) -> TaskSet:
    """The task-file format read one line at a time, in file order: the
    first malformed line raises, naming its line number."""
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    meta: dict[str, object] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw, _, comment = raw.partition("#")
            comment = comment.strip()
            if ":" in comment:
                key, _, value = comment.partition(":")
                key, value = key.strip(), value.strip()
                if key == "format_version" and value != "1":
                    raise ParseError(f"unsupported format_version {value!r}", lineno)
                if key in _TASK_META_TYPES:
                    try:
                        meta[key] = _TASK_META_TYPES[key](value)
                    except ValueError:
                        raise ParseError(f"bad {key} value {value!r}", lineno)
        parts = raw.split()
        if not parts:
            continue
        try:
            values = tuple(map(int, parts))
        except ValueError:
            raise ParseError(f"non-integer token in {raw.strip()!r}", lineno)
        if header is None:
            if len(values) != 3:
                raise ParseError("header must be 'n d m'", lineno)
            n, d, m = values
            if n < 1 or d < 1 or d > n or m < 0:
                raise ParseError(f"invalid header n={n} d={d} m={m}", lineno)
            header = (n, d, m)
            continue
        n, d, m = header
        if len(values) != d:
            raise ParseError(f"expected {d} elements, got {len(values)}", lineno)
        if not all(map(lt, values, values[1:])):
            raise ParseError(f"elements must be strictly ascending: {list(values)}", lineno)
        if values[0] < 1 or values[-1] > n:
            raise IndexOutOfBounds(f"elements of {list(values)} outside [1, {n}]", lineno)
        if values in seen:
            raise DuplicateEdge(f"edge {values} listed twice", lineno)
        seen.add(values)
        edges.append(values)

    if header is None:
        raise ParseError("empty input: missing 'n d m' header")
    n, d, m = header
    if len(edges) != m:
        raise ParseError(f"header announced {m} edges but {len(edges)} were given")
    return TaskSet(n, d, tuple(sorted(edges)), phi=meta.get("phi"), seed=meta.get("seed"),
                   generator_id=meta.get("generator"))
