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
    The groups are cut from TaskSet.full(n, d) in one lexicographic pass;
    that set lives as long as the construction's cache entry.
3.  The N' groups are split into floor(N/N') or ceil(N/N') near-equal
    lexicographic slices and relabelled to give N groups.

The file placement of group b is its footprint over the full construction
and never depends on the task set: refinement only intersects the groups
with X, so successive task sets reuse the same placement.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, compress, cycle, islice, repeat
from operator import itemgetter, ne, sub
from struct import unpack_from
from typing import Iterator, NamedTuple

from .combinatorics import (DTuple, _rank, as_text, binomial, lex_unrank, validate_dtuple,
                            validate_dtuples)
from .counting import block_bounds, block_index, block_slices, m_beta
from .covering import Block, PrefixTables, count_below, prefix_tables, ways_by_count
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    InvalidDimensions,
    ParameterRegimeWarning,
    UnsupportedParameters,
)
from .records import Record
from .tasks import TaskSet, _Kept, refuse_duplicates

DIVISIBLE = "divisible"
NONDIVISIBLE = "nondivisible"

DEFAULT_MATERIALIZE_CAP = 10_000_000


class ICParameters(Record):
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
class SupportInfo(Record):
    """Support of one tuple: the families it touches, their count, and how
    many of its elements fall in the excluded tail."""

    families: tuple[int, ...]
    beta: int
    excluded_count: int


class Partition(Record):
    """A partition of a task set X into N groups plus the blind file
    placement: placement[b] is the files worker b holds, a superset of
    group b's own footprint.

    The construction is the partition of the complete task set (phi = 1), whose placement
    is its groups' footprints; refining it by any X keeps that placement.  assign_tasks
    places the eligible-files bound instead, and baseline partitioners place each group's
    own footprint.  A group may be a _Kept selection (see _Groups), read as its tuple.
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
    # the largest k <= n with C(k, d) <= N; C(k, d) increases with k
    k = d - 1 + bisect_right(range(d, n + 1), N, key=lambda m: binomial(m, d))
    if n % k == 0:
        case, s, s0, g = DIVISIBLE, n // k, None, 0
    else:
        s0 = n // (k + d) + 1
        if s0 > n // k:
            raise UnsupportedParameters(
                f"k={k} admits no valid family size for n={n}, d={d}: "
                f"s0={s0} exceeds floor(n/k)={n // k}"
            )
        case, s, g = NONDIVISIBLE, None, n - k * s0
    N_prime = binomial(k, d)
    q, r = divmod(N, N_prime)
    return ICParameters(
        n=n, d=d, N=N, k=k, f=k, case=case, s=s, s0=s0, g=g, n_prime=n - g,
        N_prime=N_prime, q=q, p=q if r == 0 else q + 1, r=r,
        k_capped=k == n and binomial(n + 1, d) <= N,
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


class _Groups(tuple):
    """A construction's groups carry `runs`, which gathers keep bytes along the rank ranges that cut
    them from a complete set (see _prime_partition), and `starts`, where each group begins in label
    order; they and each refine, the placement their groups lie `inside`, which counts only where it
    is their partition's own (else scans are full).  Only this module sets and reads them."""


@lru_cache(maxsize=2)
def _prime_partition(n: int, d: int, k: int) -> _Groups:
    """The N' = C(k, d) groups over all of A_{n,d}, lexicographically
    ordered by group label, each group lexicographically sorted.

    The groups are cut from TaskSet.full(n, d), whose tuple objects they
    hold; the cache entry keeps that set alive, as `full`, for thin.  The
    tuples after each (d - 1)-prefix form a run per family (or the tail) of
    their last element, each inside one support class of the Router for
    (n, d, C(k, d)), which deals its ranks in near-equal contiguous ranges to
    its eligible labels, so every label fills in order.  `runs` gathers keep
    bytes along the ranges dealt, each joined to the next where it ends as that
    begins: b"".join(pick(unpack_from(form, keep))) in C, where the struct format
    form cuts the ranks into ranges in rank order after an empty field (so one
    range still picks a tuple) and pick lists their fields in label order.
    Cached on (n, d, k) because every N with the same k shares it.
    """
    rt = Router(_derive(n, d, binomial(k, d)))
    s, n_prime, full = rt.params.family_size, rt.params.n_prime, TaskSet.full(n, d)
    spans: list[list[int]] = [[] for _ in range(rt.params.N_prime)]  # by label rank, from 1
    # per class (I, touching the tail): [members left in the current label's range, its spans,
    # the later (size, spans)]; the first min(size, labels) labels get members, larger first
    deal = {}
    for cls in rt.classes_within(range(1, k + 1)):
        q, r = divmod(cls.size, m := min(cls.size, cls.labels))
        ranges = iter([(q + (j <= r), spans[rt.eligible_rank(cls.I, j) - 1])
                       for j in range(1, m + 1)])
        deal[cls.I, len(cls.blocks) > len(cls.I)] = [*next(ranges), ranges]
    fam = [0] + [(x - 1) // s + 1 if x <= n_prime else 0 for x in range(1, n + 1)]  # 0: tail

    def grow(I: tuple[int, ...], x: int) -> tuple[int, ...]:
        return I + (fam[x],) if fam[x] and fam[x] not in I else I

    def runs(I: tuple[int, ...], t: int) -> list:
        # after a prefix with families I ending at t: a run per family (or tail) of the next element
        firsts = [t + 1, *(x for x in range(1, n_prime + 2, s) if t + 1 < x <= n)]
        return [(deal[grow(I, x), not fam[x]], (fam[x] * s or n) - x + 1) for x in firsts]

    rows, o = {}, 0  # I -> the runs after each t; o: the next tuple's rank, from 0
    # each (d - 1)-prefix is a head Q of d - 2 elements, with families I, and a last element t
    for Q in combinations(range(1, n - 1), d - 2) if d > 1 else [()]:
        I = reduce(grow, Q, ())
        ts = range(Q[-1] + 1 if Q else 1, n) if d > 1 else (0,)  # 0: the empty prefix of d = 1
        row = rows.get(I)
        if row is None:  # first met at its least t, so later heads find every t they need
            row = rows[I] = [None] * ts[0] + [runs(grow(I, t), t) for t in ts]
        for t in ts:
            for st, size in row[t]:
                while size > st[0]:  # the run crosses into the class's next label
                    st[1] += (o, o + st[0]) if st[0] else ()  # none for a label already full
                    o, size = o + st[0], size - st[0]
                    st[0], st[1] = next(st[2])
                st[0] -= size
                st[1] += o, o + size
                o += size
    bounds = list(chain.from_iterable(spans))
    apart = map(ne, bounds[1:-1:2], bounds[2::2])  # false where two ranges join
    firsts = list(compress(bounds[::2], chain((1,), apart)))  # each range's start, label order
    ranked = sorted(firsts)  # the ranges tile the ranks: each ends where the next one starts
    sizes = tuple(map(sub, [*ranked[1:], len(full.edges)], ranked))
    field = dict(zip(ranked, range(1, len(ranked) + 1)))  # each range's field, after field 0
    gather = "0s" + "%ds" * len(sizes) % sizes, itemgetter(0, *map(field.__getitem__, firsts))
    del bounds, apart, firsts, ranked, sizes, field  # freed before the groups are cut
    cut = full.edges.__getitem__
    out = _Groups(tuple(chain.from_iterable(map(cut, map(slice, b[::2], b[1::2])))) for b in spans)
    out.full, out.runs = full, gather
    return out


def build_base_partition(params: ICParameters) -> Partition:
    """Materialize the partition of the complete task set (phi = 1): the N
    groups, each placed on its own footprint.

    Limited to C(n, d) and N at most DEFAULT_MATERIALIZE_CAP; beyond that use
    assign_base_group / assign_tasks, which never materialize a group.
    """
    total = binomial(params.n, params.d)
    if max(total, params.N) > DEFAULT_MATERIALIZE_CAP:
        raise InstanceTooLarge(
            f"C({params.n},{params.d}) = {as_text(total)} tuples or N = {params.N} groups exceeds "
            f"the materialization cap {DEFAULT_MATERIALIZE_CAP}; the CLI materializes, and "
            "only the library calls assign_base_group and assign_tasks stream"
        )
    out: list[tuple[DTuple, ...]] = [()] * params.N  # slice j of label b0 (from 0): b0 + j * N'
    starts, a = array("I", [0]) * params.N, 0  # each slice's offset, all slices in label order
    for b0, members in enumerate(prime := _prime_partition(params.n, params.d, params.k)):
        for j, part in enumerate(block_slices(members, params.p if b0 < params.r else params.q)):
            out[b0 + j * params.N_prime] = part
            starts[b0 + j * params.N_prime], a = a, a + len(part)
    groups = _Groups(out)
    groups.runs, groups.starts = prime.runs, starts
    # group b touches only the families of label b mod N' and the tail, so its scan stops there
    groups.inside = placement = tuple(map(footprint, groups, cycle(_label_files(params))))
    return Partition(params.n, params.d, groups, placement, params, {"phi": 1.0})


def footprint(group, within: tuple[int, ...] = ()) -> tuple[int, ...]:
    """The distinct files a group of tuples touches, ascending.  Given files `within` that hold
    every tuple of the group, the scan stops once it has met them all; each check follows at
    most 256 tuples spread evenly over the group (a _Kept not yet made: over its base, unmade)."""
    files: set[int] = set()
    keep = getattr(group, "keep", None)  # a _Kept not yet made: its batch i selects from base's
    step = -(-len(group if keep is None else group.base) // 256)  # batch i: every step-th from i
    for i in range(step):
        files.update(chain.from_iterable(
            group[i::step] if keep is None else compress(group.base[i::step], keep[i::step])))
        if within and len(files) == len(within):  # a batch may keep nothing
            return within
    return tuple(sorted(files))


def footprint_sizes(p: Partition) -> list[int]:
    """Each group's file count, by a scan that stops at the group's whole placement entry
    where p's groups are marked inside p's placement (see _Groups), else by a full scan."""
    held = p.placement if getattr(p.groups, "inside", None) is p.placement else repeat(())
    return [len(footprint(g, h)) for g, h in zip(p.groups, held)]


def _within_placement(p: Partition) -> bool:
    """Whether every group touches only files of its own placement entry (by full scans)."""
    return all(set(h).issuperset(footprint(g)) for g, h in zip(p.groups, p.placement))


# ---------------------------------------------------------------------------
# closed-form assignment
# ---------------------------------------------------------------------------


class _SupportClass(NamedTuple):
    """The tuples with support I (touching the excluded tail or not): their block universe
    with its count_below prefix tables, their number and the number of labels containing I
    (each takes a near-equal contiguous range of the class's lexicographic ranks, in label
    order)."""

    I: tuple[int, ...]
    blocks: list[Block]
    tables: list[PrefixTables]
    size: int
    labels: int


class Router:
    """The closed-form router of one parameter set; the materialized build
    reads its description of the support classes too.

    A label is its rank b0 among the d-subsets sigma of [f], N' - sum_i C(f - sigma_i, d - i)
    (i from 0), the sum of _weights[i][sigma_i].  Built on first use, it keeps each non-empty
    support class, the prefix tables of each block shape, the cut tuples of each split label's
    non-empty slices, the rank of each label a routed tuple met, by its support set I and j
    (one dict per I, which both classes of I share), and placement (N references to N' tuples
    of s*d + g files).  So what routing keeps grows with the classes and labels it meets, not
    with N'.  After 20,000 stream tuples that is 0.17 MB at (600, 3, 200); at (10000, 5, 10^7),
    where they meet 13,860 labels, the ranks take 2.2 MB with their int objects.
    """

    def __init__(self, params: ICParameters):
        self.params = params
        self._weights = [[params.N_prime * (i == 0) - binomial(params.f - v, params.d - i)
                          for v in range(params.f + 1)] for i in range(params.d)]
        self._classes: dict[tuple[tuple[int, ...], bool], _SupportClass] = {}
        self._shapes: dict[tuple[int, ...], PrefixTables] = {}
        self._cuts: dict[int, list[DTuple]] = {}
        self._ranks: defaultdict[tuple[int, ...], dict[int, int]] = defaultdict(dict)

    def support_class(self, I: tuple[int, ...], exc: bool) -> _SupportClass | None:
        """The support class (I, exc), built on first use, or None when no
        d-tuple has that support; an empty class is not kept."""
        cls = self._classes.get((I, exc))
        if cls is None:
            p = self.params
            blocks: list[Block] = [((i - 1) * p.family_size + 1, i * p.family_size) for i in I]
            if exc:
                blocks.append((p.n_prime + 1, p.n))
            count = ways_by_count([hi - lo + 1 for lo, hi in blocks], p.d)[p.d]
            if not count:
                return None
            cls = self._classes[I, exc] = _SupportClass(
                I, blocks, prefix_tables(blocks, self._shapes), count, m_beta(p.f, p.d, len(I)))
        return cls

    def classes_within(self, families) -> Iterator[_SupportClass]:
        """Every non-empty support class whose families all lie in
        `families` (one label, or all of [f]), by support size."""
        for beta in range(-(-max(0, self.params.d - self.params.g) // self.params.family_size),
                          self.params.d + 1):  # fewer families hold no d-tuple, with the tail
            for I in combinations(families, beta):
                for exc in (False, True):
                    cls = self.support_class(I, exc)
                    if cls is not None:
                        yield cls

    def eligible_rank(self, I: tuple[int, ...], j: int) -> int:
        """Rank b0 of the j-th label containing I in lexicographic order: I merged
        with the j-th (d - |I|)-subset of [f] minus I."""
        rest, e = [x for x in range(1, self.params.f + 1) if x not in I], self.params.d - len(I)
        J = [rest[q - 1] for q in lex_unrank(j, len(rest), e)] if e else []
        return _rank(sorted([*I, *J]), self.params.f)

    def label_of(self, t: DTuple) -> int:
        """Rank b0 of the label of the pre-extension group holding t."""
        p = self.params
        size, n_prime, weights = p.family_size, p.n_prime, self._weights
        fams: list[int] = []
        b0 = 0  # the rank of fams once it holds d families, which is full support
        for x in t:
            if x <= n_prime:
                i = (x - 1) // size + 1
                if not fams or fams[-1] != i:
                    b0 += weights[len(fams)][i]
                    fams.append(i)
        if len(fams) == p.d:
            return b0
        cls = self.support_class(I := tuple(fams), t[-1] > n_prime)
        j = block_index(cls.size, cls.labels, count_below(t, cls.blocks, p.d, cls.tables) + 1)
        ranks = self._ranks[I]  # the j-th label containing I, ranked once when first met
        return ranks.get(j) or ranks.setdefault(j, self.eligible_rank(I, j))

    def route(self, t: DTuple) -> int:
        """Group index in [1, N] of a validated d-tuple t."""
        p = self.params
        b0 = self.label_of(t)
        parts = p.p if b0 <= p.r else p.q
        if parts == 1:
            return b0
        cuts = self._cuts.get(b0)
        if cuts is None:
            cuts = self._cuts[b0] = self._label_cuts(lex_unrank(b0, p.f, p.d), parts)
        return b0 + bisect_right(cuts, t) * p.N_prime

    placement = cached_property(lambda self: eligible_placement(self.params))  # assign_tasks

    def pieces(self, sigma: tuple[int, ...]) -> tuple[list[tuple[_SupportClass, int, int]], int]:
        """The support classes dealing members to label sigma, each with the
        1-based inclusive range of its lexicographic ranks that sigma gets,
        and the group's size before extension.  The full-support class
        (I = sigma) is dealt whole to sigma."""
        f, out = self.params.f, []
        for cls in self.classes_within(sigma):
            I = cls.I  # sigma is I merged with the j-th subset of [f] minus I: j ranks the rest
            j = _rank([x - bisect_left(I, x) for x in sigma if x not in I], f - len(I))
            start, end = block_bounds(cls.size, cls.labels, j)
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
        """The first member of each of the label's non-empty slices after the first.  Empty
        slices (fewer members than slices) come last and no tuple is routed to one, so they
        need no cut."""
        pieces, total = self.pieces(sigma)
        return [self._member_at(block_bounds(total, parts, j)[0], pieces)
                for j in range(2, min(parts, total) + 1)]

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
    the base partition, so the file allocation is identical for every X.
    X holding keep bytes (see thin), against a construction's groups (which carry their runs,
    see _Groups), gathers those bytes along the runs and deals each group its own from its start,
    as a _Kept (made when read); any other input (a parsed or copied X, a parsed or refined
    base) is intersected with each group as a set.  Groups marked inside mark their refine's."""
    if tasks.n != base.n or tasks.d != base.d:
        raise DimensionMismatch(
            f"tasks are ({tasks.n},{tasks.d}) but partition is ({base.n},{base.d})"
        )
    keep = getattr(tasks, "keep", None)
    if keep is None or not hasattr(base.groups, "runs"):
        wanted = frozenset(tasks.edges)
        groups = _Groups(tuple(filter(wanted.__contains__, g)) for g in base.groups)
    else:
        form, pick = base.groups.runs
        kept = b"".join(pick(unpack_from(form, keep)))
        groups = _Groups(_Kept(g, kept[a:a + len(g)])
                         for g, a in zip(base.groups, base.groups.starts))
    if getattr(base.groups, "inside", None) is base.placement:
        groups.inside = base.placement
    return Partition(base.n, base.d, groups, base.placement, base.params, _task_metadata(tasks))


def _label_files(params: ICParameters) -> list[tuple[int, ...]]:
    """Each label's families' files plus the excluded tail, in label order."""
    tail = params.excluded
    return [sum(fams, ()) + tail for fams in combinations(build_families(params), params.d)]


def eligible_placement(params: ICParameters) -> tuple[tuple[int, ...], ...]:
    """Closed-form placement upper bound: group b + 1 may only ever touch the files of its
    label's families (label b mod N') plus the excluded tail.  Used by the streaming path,
    where exact footprints would require materialization (refused first over the cap, in
    groups or in file references).  Groups that share a label share one tuple, and every
    tuple shares the families' files.  router(params).placement keeps it for assign_tasks."""
    files = params.family_size * params.d + params.g  # each label's, 8 bytes a reference
    if max(params.N, params.N_prime * files) > DEFAULT_MATERIALIZE_CAP:
        raise InstanceTooLarge(f"N = {params.N} groups, or N' = {params.N_prime} labels of {files} "
                               f"files each ({8 * params.N_prime * files} bytes), exceeds the cap "
                               f"{DEFAULT_MATERIALIZE_CAP} ({8 * DEFAULT_MATERIALIZE_CAP} bytes)")
    return tuple(islice(cycle(_label_files(params)), params.N))


def assign_tasks(params: ICParameters, tasks: TaskSet) -> Partition:
    """Streaming refinement: route every edge of X with the parameters'
    Router, never materializing the base partition.  The reported placement
    is the eligible-files bound, a valid (slightly conservative) blind
    placement: the Router's own, one tuple for every call (refused over the cap before routing)."""
    if tasks.n != params.n or tasks.d != params.d:
        raise DimensionMismatch(
            f"tasks are ({tasks.n},{tasks.d}) but parameters are "
            f"({params.n},{params.d})"
        )
    rt = router(params)
    groups: list[list[DTuple]] = [[] for _ in rt.placement]  # over the cap, placement refuses
    for e in tasks.edges:  # canonical by the TaskSet contract; not validated again
        groups[rt.route(e) - 1].append(e)
    return Partition(
        params.n, params.d, tuple(tuple(g) for g in groups), rt.placement, params,
        _task_metadata(tasks),
    )


def validate_groups(groups, n: int, d: int) -> tuple[tuple[DTuple, ...], ...]:
    """The groups as tuples of canonical d-tuples, each checked by validate_dtuples.  A tuple
    listed twice raises DuplicateEdge: one sorted flat list finds it, in less memory than a set."""
    groups = tuple(tuple(validate_dtuples(g, n, d)) for g in groups)
    refuse_duplicates(list(chain.from_iterable(groups)))
    return groups


def partition_from_groups(n: int, d: int, groups) -> Partition:
    """Wrap explicit groups (e.g. a hand-written partition), checked by validate_groups as
    parse_partition checks a file's, with their own footprints as placement."""
    return _own_placement(n, d, validate_groups(groups, n, d), None)


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
