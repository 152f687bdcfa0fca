"""The interweaved-cliques partition of all d-subsets of [n] into N worker
groups, its closed-form per-tuple group assignment, and the refinement of
the partition against a concrete task set.

Construction outline
--------------------
1.  Pick k as the largest integer with C(k, d) <= N (capped at n) and set
    f = k families.  If k divides n the families have size s = n / k and
    tile [n] exactly (the divisible case).  Otherwise the family size is
    s0 = floor(n / (k + d)) + 1, the families tile [n'] for n' = k * s0,
    and the top g = n - n' files form the excluded tail; this requires
    s0 <= floor(n / k), else the parameters are unsupported.
2.  Label N' = C(k, d) groups by the d-subsets sigma of [f].  A tuple
    supported by d distinct families goes to the group labelled by its
    support.  Tuples with smaller support I (and, in the non-divisible
    case, tuples touching the excluded tail) are listed lexicographically
    per support set and dealt out in near-equal contiguous blocks to the
    eligible groups, i.e. the sigma containing I, in lexicographic order.
3.  The N' groups are split into floor(N/N') or ceil(N/N') near-equal
    lexicographic slices and relabelled to give N groups.

The file placement of group b is its footprint over the full construction
and never depends on the task set: refinement only intersects the groups
with X, so successive task sets reuse the same placement.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product, starmap
from operator import add
from typing import Iterator, NamedTuple

from .combinatorics import DTuple, binomial, validate_dtuple
from .counting import block_bounds, block_index
from .covering import Block, PrefixTables, count_below, prefix_tables, ways_by_count
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    InvalidDimensions,
    ParameterRegimeWarning,
    UnsupportedParameters,
)
from .tasks import TaskSet

DIVISIBLE = "divisible"
NONDIVISIBLE = "nondivisible"

DEFAULT_MATERIALIZE_CAP = 10_000_000


@dataclass(frozen=True)
class ICParameters:
    """Every derived constant of the construction for one (n, d, N)."""

    n: int
    d: int
    N: int
    k: int
    f: int
    case: str
    s: int | None
    s0: int | None
    g: int
    n_prime: int
    N_prime: int
    q: int
    p: int
    r: int
    k_capped: bool

    @property
    def family_size(self) -> int:
        return self.s if self.case == DIVISIBLE else self.s0

    @property
    def excluded(self) -> tuple[int, ...]:
        return tuple(range(self.n_prime + 1, self.n + 1))


# SupportInfo and support_of are kept for the benchmark under perfbench/,
# which tags routed tuples with them; the library itself routes by Router.
@dataclass(frozen=True)
class SupportInfo:
    """Support of one tuple: the families it touches, their count, and how
    many of its elements fall in the excluded tail."""

    families: tuple[int, ...]
    beta: int
    excluded_count: int


@dataclass(frozen=True)
class Partition:
    """A partition of a task set X into N groups plus the blind file
    placement: placement[b] is the files worker b holds, a superset of
    group b's own footprint.

    The construction is the partition of the complete task set (phi = 1),
    whose placement is its groups' footprints; refining it by any X keeps
    that placement.  assign_tasks places the eligible-files bound instead,
    and baseline partitioners place each group's own footprint.
    """

    n: int
    d: int
    groups: tuple[tuple[DTuple, ...], ...]
    placement: tuple[tuple[int, ...], ...]
    params: ICParameters | None = None
    metadata: dict | None = None

    @property
    def N(self) -> int:
        return len(self.groups)

    @property
    def footprints(self) -> tuple[tuple[int, ...], ...]:
        # an alias of placement, kept only for the benchmark under perfbench/
        return self.placement


def derive_parameters(n: int, d: int, N: int) -> ICParameters:
    """All construction constants for (n, d, N).

    Raises UnsupportedParameters in the non-divisible case when the family
    size s0 would overshoot floor(n / k) (equivalently, N exceeds the
    largest guaranteed-supported worker count for this n and d).
    """
    params = _derive(n, d, N)
    if d < 2 or d > n / 32:
        warnings.warn(
            f"(n={n}, d={d}) is outside the recommended regime 2 <= d <= n/32; "
            "cost guarantees may not apply",
            ParameterRegimeWarning,
            stacklevel=2,
        )
    return params


def _derive(n: int, d: int, N: int) -> ICParameters:
    # derive_parameters without the regime warning, for internal callers
    # whose caller has already been warned
    if d < 1 or d > n:
        raise InvalidDimensions(f"need 1 <= d <= n, got n={n}, d={d}")
    if N < 1:
        raise UnsupportedParameters(f"need N >= 1, got {N}")
    k = d
    while k + 1 <= n and binomial(k + 1, d) <= N:
        k += 1
    k_capped = k == n and binomial(n + 1, d) <= N
    f = k
    N_prime = binomial(k, d)
    q, r = divmod(N, N_prime)
    p = q if r == 0 else q + 1
    if n % k == 0:
        s = n // k
        return ICParameters(
            n=n, d=d, N=N, k=k, f=f, case=DIVISIBLE, s=s, s0=None, g=0,
            n_prime=n, N_prime=N_prime, q=q, p=p, r=r, k_capped=k_capped,
        )
    s0 = n // (k + d) + 1
    if s0 > n // k:
        raise UnsupportedParameters(
            f"k={k} admits no valid family size for n={n}, d={d}: "
            f"s0={s0} exceeds floor(n/k)={n // k}"
        )
    g = n - k * s0
    return ICParameters(
        n=n, d=d, N=N, k=k, f=f, case=NONDIVISIBLE, s=None, s0=s0, g=g,
        n_prime=n - g, N_prime=N_prime, q=q, p=p, r=r, k_capped=k_capped,
    )


def build_families(params: ICParameters) -> list[tuple[int, ...]]:
    """The f contiguous families tiling [1, n'] (all of [1, n] when
    divisible)."""
    size = params.family_size
    return [
        tuple(range((i - 1) * size + 1, i * size + 1)) for i in range(1, params.f + 1)
    ]


def support_of(t, params: ICParameters) -> SupportInfo:
    """Families touched by t plus its excluded-element count."""
    t = validate_dtuple(t, params.n, params.d)
    fams = set()
    excluded = 0
    for x in t:
        if x > params.n_prime:
            excluded += 1
        else:
            fams.add((x - 1) // params.family_size + 1)
    families = tuple(sorted(fams))
    return SupportInfo(families=families, beta=len(families), excluded_count=excluded)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _eligible_groups(I: tuple[int, ...], f: int, d: int) -> list[tuple[int, ...]]:
    """Group labels containing I, in lexicographic order."""
    rest = [i for i in range(1, f + 1) if i not in I]
    return sorted(tuple(sorted(I + J)) for J in combinations(rest, d - len(I)))


def _support_class(blocks: list[Block], d: int) -> list[DTuple]:
    """The d-tuples taking at least one element from each of these
    intervals and none from elsewhere, each interval lying above the one
    before, in lexicographic order.  Each split of d into per-block counts
    is a product of the blocks' combinations, already in lexicographic
    order; the splits interleave, so the class is sorted once."""
    members: list[DTuple] = []
    # each block takes 1 to d - (len(blocks) - 1) elements
    for counts in product(range(1, d - len(blocks) + 2), repeat=len(blocks)):
        if sum(counts) == d:
            joined = [()]
            for (lo, hi), c in zip(blocks, counts):
                joined = starmap(add, product(joined, combinations(range(lo, hi + 1), c)))
            members.extend(joined)
    members.sort()
    return members


@lru_cache(maxsize=2)
def _prime_partition(n: int, d: int, k: int) -> tuple[tuple[DTuple, ...], ...]:
    """The N' = C(k, d) groups over all of A_{n,d}, lexicographically
    ordered by group label, each group lexicographically sorted.

    Each support class of the Router for (n, d, C(k, d)) is generated from
    its blocks and cut into the rank ranges it deals to its eligible
    labels; the full-support class (|I| = d, no tail) has one such label
    and goes to it whole.  Cached on (n, d, k) because every N with the
    same k shares it.
    """
    params = _derive(n, d, binomial(k, d))
    if params.k != k:  # only reachable through inconsistent internal calls
        raise UnsupportedParameters(f"no N maps to k={k} for n={n}, d={d}")
    rt = Router(params)
    groups: dict[tuple[int, ...], list[DTuple]] = {sigma: [] for sigma in rt.labels}
    for cls in rt.classes_within(range(1, k + 1)):
        members = _support_class(cls.blocks, d)
        for j, sigma in enumerate(cls.eligible, start=1):
            start, end = cls.ranks(j)
            if start > end:
                break
            groups[sigma].extend(members[start - 1 : end])

    return tuple(tuple(sorted(groups[sigma])) for sigma in rt.labels)


def _extend(
    prime: tuple[tuple[DTuple, ...], ...], params: ICParameters
) -> tuple[tuple[DTuple, ...], ...]:
    """Split the N' groups into near-equal lexicographic slices and relabel
    slice j of group b as group b + (j - 1) * N'."""
    N_prime, q, p, r = params.N_prime, params.q, params.p, params.r
    out: list[tuple[DTuple, ...]] = [()] * params.N
    for b0, members in enumerate(prime, start=1):
        parts = p if b0 <= r else q
        for j in range(1, parts + 1):
            start, end = block_bounds(len(members), parts, j)
            out[b0 + (j - 1) * N_prime - 1] = members[start - 1 : end]
    return tuple(out)


def build_base_partition(params: ICParameters) -> Partition:
    """Materialize the partition of the complete task set (phi = 1): the N
    groups, each placed on its own footprint.

    Limited to C(n, d) <= DEFAULT_MATERIALIZE_CAP; beyond that use
    assign_base_group / assign_tasks, which never materialize a group.
    """
    total = binomial(params.n, params.d)
    if total > DEFAULT_MATERIALIZE_CAP:
        raise InstanceTooLarge(
            f"C({params.n},{params.d}) = {total} exceeds the materialization "
            f"cap {DEFAULT_MATERIALIZE_CAP}; use the streaming interface"
        )
    groups = _extend(_prime_partition(params.n, params.d, params.k), params)
    return Partition(
        params.n, params.d, groups, tuple(footprint(g) for g in groups), params, {"phi": 1.0}
    )


def footprint(group) -> tuple[int, ...]:
    """The distinct files a group of tuples touches, ascending."""
    return tuple(sorted({x for t in group for x in t}))


def _within_placement(p: Partition) -> bool:
    """Whether every group touches only files of its own placement entry."""
    return all(set(held).issuperset(footprint(g)) for g, held in zip(p.groups, p.placement))


def pre_extension_sizes(base: Partition) -> list[int]:
    """Sizes of the N' groups before the N-way relabelling, reconstructed
    by summing each group's slices."""
    N_prime = base.params.N_prime
    sizes = [0] * N_prime
    for b, g in enumerate(base.groups):
        sizes[b % N_prime] += len(g)
    return sizes


# ---------------------------------------------------------------------------
# closed-form assignment
# ---------------------------------------------------------------------------


class _SupportClass(NamedTuple):
    """The tuples with support I (touching the excluded tail or not): their
    block universe with its count_below prefix tables, their number, and the
    labels they are dealt to in lexicographic order, each label taking a
    near-equal contiguous range of the class's lexicographic ranks."""

    blocks: list[Block]
    tables: list[PrefixTables]
    size: int
    eligible: list[tuple[int, ...]]

    def ranks(self, j: int) -> tuple[int, int]:
        """1-based inclusive range of the ranks dealt to the j-th eligible
        label; empty (start > end) past the class's last member."""
        return block_bounds(self.size, len(self.eligible), j)


class Router:
    """The closed-form router of one parameter set; the materialized build
    reads its description of the support classes too.

    Everything in it depends only on (n, d, N): the label ranks up front,
    and, built on first use, each non-empty support class, the count_below
    prefix tables of each block shape (shared by the classes) and each split
    label's cut tuples, the first member of every slice after the first.
    Its memory is O(classes + split labels + d^2 (s + g)), never O(C(n, d)).
    """

    def __init__(self, params: ICParameters):
        self.params = params
        self.labels = list(combinations(range(1, params.f + 1), params.d))
        self.label_rank = {sigma: b0 for b0, sigma in enumerate(self.labels, start=1)}
        self._classes: dict[tuple[tuple[int, ...], bool], _SupportClass] = {}
        self._shapes: dict[tuple[int, ...], PrefixTables] = {}
        self._cuts: dict[int, list[DTuple]] = {}

    def support_class(self, I: tuple[int, ...], exc: bool) -> _SupportClass | None:
        """The support class (I, exc), built on first use, or None when no
        d-tuple has that support; an empty class is not kept."""
        cls = self._classes.get((I, exc))
        if cls is None:
            p = self.params
            size = p.family_size
            blocks: list[Block] = [((i - 1) * size + 1, i * size) for i in I]
            if exc:
                blocks.append((p.n_prime + 1, p.n))
            count = ways_by_count([hi - lo + 1 for lo, hi in blocks], p.d)[p.d]
            if not count:
                return None
            # the label tuples themselves, not equal copies
            eligible = [self.labels[self.label_rank[s] - 1] for s in _eligible_groups(I, p.f, p.d)]
            cls = self._classes[I, exc] = _SupportClass(
                blocks, prefix_tables(blocks, self._shapes), count, eligible
            )
        return cls

    def classes_within(self, families) -> Iterator[_SupportClass]:
        """Every non-empty support class whose families all lie in
        `families` (one label, or all of [f]), by support size."""
        for beta in range(self.params.d + 1):
            for I in combinations(families, beta):
                for exc in (False, True):
                    cls = self.support_class(I, exc)
                    if cls is not None:
                        yield cls

    def label_of(self, t: DTuple) -> tuple[int, ...]:
        """Label sigma of the pre-extension group holding t."""
        p = self.params
        size, n_prime = p.family_size, p.n_prime
        fams: list[int] = []
        for x in t:
            if x <= n_prime:
                i = (x - 1) // size + 1
                if not fams or fams[-1] != i:
                    fams.append(i)
        I = tuple(fams)
        exc = t[-1] > n_prime
        if not exc and len(I) == p.d:
            return I
        cls = self.support_class(I, exc)
        rho = count_below(t, cls.blocks, p.d, cls.tables) + 1
        return cls.eligible[block_index(cls.size, len(cls.eligible), rho) - 1]

    def route(self, t: DTuple) -> int:
        """Group index in [1, N] of a validated d-tuple t."""
        p = self.params
        b0 = self.label_rank[self.label_of(t)]
        parts = p.p if b0 <= p.r else p.q
        if parts == 1:
            return b0
        cuts = self._cuts.get(b0)
        if cuts is None:
            cuts = self._cuts[b0] = self._label_cuts(self.labels[b0 - 1], parts)
        return b0 + bisect_right(cuts, t) * p.N_prime

    def pieces(self, sigma: tuple[int, ...]) -> tuple[list[tuple[_SupportClass, int, int]], int]:
        """The support classes dealing members to label sigma, each with the
        1-based inclusive range of its lexicographic ranks that sigma gets,
        and the group's size before extension.  The full-support class
        (I = sigma) is dealt whole to sigma."""
        out = []
        for cls in self.classes_within(sigma):
            start, end = cls.ranks(bisect_left(cls.eligible, sigma) + 1)
            if start <= end:
                out.append((cls, start, end))
        return out, sum(end - start + 1 for _, start, end in out)

    def position(self, t: DTuple, pieces) -> int:
        """1-based lexicographic position of t inside the group with these
        pieces; for a t outside the group, 1 + the members below it."""
        d = self.params.d
        below = 0
        for cls, start, end in pieces:
            r_class = count_below(t, cls.blocks, d, cls.tables)
            below += min(max(r_class, start - 1), end) - (start - 1)
        return below + 1

    def _label_cuts(self, sigma: tuple[int, ...], parts: int) -> list[DTuple]:
        """The first member of each of the label's slices after the first.
        An empty slice (fewer members than slices) gets (n + 1,), which
        sorts after every d-tuple."""
        pieces, total = self.pieces(sigma)
        cuts = []
        for j in range(2, parts + 1):
            first, _ = block_bounds(total, parts, j)
            cuts.append(self._member_at(first, pieces) if first <= total else (self.params.n + 1,))
        return cuts

    def _member_at(self, position: int, pieces) -> DTuple:
        """The group member at a 1-based position: the largest d-tuple whose
        own position is at most that, fixed one element at a time by
        binary search."""
        n, d = self.params.n, self.params.d
        prefix: DTuple = ()
        for j in range(d):
            rest = d - j - 1
            lo, hi = (prefix[-1] if prefix else 0) + 1, n - rest
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self.position(prefix + tuple(range(mid, mid + rest + 1)), pieces) <= position:
                    lo = mid
                else:
                    hi = mid - 1
            prefix += (lo,)
        return prefix


@lru_cache(maxsize=8)
def router(params: ICParameters) -> Router:
    """The Router of params, built once and shared by every call."""
    return Router(params)


def assign_base_group(t, params: ICParameters) -> int:
    """Group index in [1, N] holding tuple t, equal to membership in the
    materialized partition but computed by rank arithmetic alone."""
    return router(params).route(validate_dtuple(t, params.n, params.d))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def refine(base: Partition, tasks: TaskSet) -> Partition:
    """Intersect each group with X.  The placement is copied unchanged from
    the base partition, so the file allocation is identical for every X."""
    if tasks.n != base.n or tasks.d != base.d:
        raise DimensionMismatch(
            f"tasks are ({tasks.n},{tasks.d}) but partition is ({base.n},{base.d})"
        )
    wanted = frozenset(tasks.edges)
    groups = tuple(tuple(filter(wanted.__contains__, g)) for g in base.groups)
    return Partition(base.n, base.d, groups, base.placement, base.params, _task_metadata(tasks))


def eligible_placement(params: ICParameters) -> tuple[tuple[int, ...], ...]:
    """Closed-form placement upper bound: group b may only ever touch the
    files of its parent label's families plus the excluded tail.  Used by
    the streaming path, where exact footprints would require
    materialization.  Groups that share a label share one tuple, and
    every tuple shares the file objects of the family tuples."""
    families = build_families(params)
    tail = params.excluded
    per_label = [
        sum((families[i - 1] for i in sigma), ()) + tail
        for sigma in combinations(range(1, params.f + 1), params.d)
    ]
    return tuple(per_label[b % params.N_prime] for b in range(params.N))


def assign_tasks(params: ICParameters, tasks: TaskSet) -> Partition:
    """Streaming refinement: route every edge of X with the parameters'
    Router, never materializing the base partition.  The reported placement
    is the eligible-files bound, a valid (slightly conservative) blind
    placement."""
    if tasks.n != params.n or tasks.d != params.d:
        raise DimensionMismatch(
            f"tasks are ({tasks.n},{tasks.d}) but parameters are "
            f"({params.n},{params.d})"
        )
    rt = router(params)
    groups: list[list[DTuple]] = [[] for _ in range(params.N)]
    for e in tasks.edges:  # canonical by the TaskSet contract; not validated again
        groups[rt.route(e) - 1].append(e)
    return Partition(
        params.n, params.d, tuple(tuple(g) for g in groups), eligible_placement(params),
        params, _task_metadata(tasks),
    )


def partition_from_groups(
    n: int, d: int, groups, metadata: dict | None = None
) -> Partition:
    """Wrap explicit groups (e.g. a hand-written partition) with their own
    footprints as placement.  Every tuple is validated."""
    return _own_placement(
        n, d, tuple(tuple(validate_dtuple(t, n, d) for t in g) for g in groups), metadata
    )


def _own_placement(n: int, d: int, groups, metadata: dict | None) -> Partition:
    """Groups of canonical tuples, taken as given, with their own footprints
    as placement."""
    return Partition(n, d, groups, tuple(footprint(g) for g in groups), None, metadata)


# BasePartition and as_final are kept only for the benchmark under
# perfbench/, which still calls them; neither adds anything to Partition.
def BasePartition(params: ICParameters, groups, footprints) -> Partition:
    return Partition(params.n, params.d, groups, footprints, params)


def as_final(base: Partition) -> Partition:
    return base


def _task_metadata(tasks: TaskSet) -> dict:
    return {
        "phi": tasks.phi,
        "seed": tasks.seed,
        "generator_id": tasks.generator_id,
    }
