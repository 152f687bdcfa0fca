"""Acceptance suite: every criterion checked at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them all)."""

import math
import random
import time

from conftest import acceptance_line, counts_by_beta, support_classes
from ic_alloc.baselines import ThinningSpec
from ic_alloc.combinatorics import binomial, enumerate_lex
from ic_alloc.counting import (
    beta_range_excluded,
    beta_range_interior,
    card_C_beta,
    card_R_beta_I,
    pi_lower_bound_int,
)
from ic_alloc.design import (
    assign_base_group,
    build_base_partition,
    derive_parameters,
    partition_from_groups,
    refine,
)
from ic_alloc.harness import monte_carlo_delta, simulate_rounds
from ic_alloc.metrics import TOL, arf_of, delta_of, pi_of
from ic_alloc.oracle import brute_force_pi_star
from ic_alloc.tasks import TaskSet

# the large-n grid for the constant-factor guarantees, which need d <= n/32
GUARANTEE_GRID = [
    (64, 2, 3), (64, 2, 10), (64, 2, 25),
    (100, 2, 10), (100, 2, 40),
    (200, 2, 10), (200, 2, 81),
    (96, 3, 4), (96, 3, 20), (96, 3, 100),
    (120, 3, 20), (120, 3, 120),
]


def test_criterion_1_example_reproduction():
    start = time.perf_counter()
    A = partition_from_groups(7, 2, [[(1, 2), (1, 3)], [(2, 3), (4, 5), (2, 7), (3, 6)]])
    B = partition_from_groups(7, 2, [[(1, 2), (1, 3), (4, 5)], [(2, 3), (2, 7), (3, 6)]])
    ok = (
        pi_of(A) == 6
        and math.isclose(delta_of(A), 4 / 3, rel_tol=0, abs_tol=1e-15)
        and pi_of(B) == 5
        and delta_of(B) == 1.0
        and time.perf_counter() - start < 1.0
    )
    acceptance_line(1, "worked-example partitions evaluate to pi 6 / delta 4:3 and pi 5 / delta 1", ok)
    assert ok


def test_criterion_2_optimality_at_tiny_scale():
    start = time.perf_counter()
    params = derive_parameters(6, 2, 3)
    ic_pi = pi_of(build_base_partition(params))
    pi_star, _ = brute_force_pi_star(TaskSet.full(6, 2), 3)
    elapsed = time.perf_counter() - start
    ok = ic_pi == 4 and pi_star == 4 and elapsed < 5.0
    acceptance_line(2, f"construction pi=4 equals exhaustive optimum pi*={pi_star}", ok)
    assert ok


def test_criterion_3_partition_validity_grid(grid_sweep):
    points, seconds = grid_sweep
    bad = [p for p in points if not p.valid]
    ok = not bad and len(points) > 4000 and seconds < 120.0
    acceptance_line(
        3,
        f"groups disjoint and exhaustive on all {len(points)} supported points "
        f"(n<=60, d in {{2,3}}, N<=40; {seconds:.1f}s)",
        ok,
    )
    assert ok, bad[:5]


def test_criterion_4_pi_exactness_and_bound(grid_points):
    bad = []
    for p in grid_points:
        if p.case == "divisible":
            if p.pi != p.family_size * p.d:
                bad.append(p)
        else:
            if p.pi > p.family_size * p.d + p.g:
                bad.append(p)
    ok = not bad
    acceptance_line(
        4, "pi == s*d on every divisible point; pi <= s0*d + g on every other", ok
    )
    assert ok, bad[:5]


def test_criterion_5_pre_extension_size_bounds(grid_points):
    bad = [p for p in grid_points if not p.size_bound_ok]
    ok = not bad
    acceptance_line(
        5, "pre-extension group sizes within C(n,d)/N' +- (2^d - d) resp. (2^(d+1) - 2d)", ok
    )
    assert ok, bad[:5]


def test_criterion_6_constant_factor_guarantees():
    bad = []
    for n, d, N in GUARANTEE_GRID:
        assert d <= n / 32 and N <= (0.9 * math.sqrt(n / d)) ** d + TOL
        params = derive_parameters(n, d, N)
        base = build_base_partition(params)
        delta = delta_of(base)
        pi = pi_of(base)
        if delta > 4.0 + TOL or pi > 4 * math.e * n / N ** (1.0 / d) + TOL:
            bad.append((n, d, N, delta, pi))
    ok = not bad
    acceptance_line(
        6, "delta <= 4 and pi <= 4e*n/N^(1/d) wherever d <= n/32 and N <= (0.9*sqrt(n/d))^d", ok
    )
    assert ok, bad


def test_criterion_7_counting_identities():
    ok = True
    # closed-form totals tile the complete universe, for every s | n
    for n in range(2, 41):
        for s in range(1, n + 1):
            if n % s:
                continue
            f = n // s
            for d in (2, 3, 4):
                if d > n or f < d:
                    continue
                total = sum(
                    card_C_beta(s, f, d, beta)
                    for beta in beta_range_interior(s, d)
                    if beta <= f
                )
                ok = ok and total == binomial(n, d)
    # closed forms match enumeration at n <= 20
    for n, d, s in [(6, 2, 2), (12, 2, 3), (12, 3, 4), (16, 4, 4), (20, 2, 5), (18, 3, 3)]:
        f = n // s
        by_beta = counts_by_beta(n, d, s)
        for beta in beta_range_interior(s, d):
            if beta <= f:
                ok = ok and by_beta.get(beta, 0) == card_C_beta(s, f, d, beta)
    for s0, f, g, d in [(2, 3, 1, 2), (2, 3, 4, 2), (3, 3, 2, 3), (2, 4, 3, 3)]:
        n = s0 * f + g
        for (touches_tail, I), members in support_classes(n, d, s0, g).items():
            if touches_tail:
                ok = ok and len(members) == card_R_beta_I(s0, f, g, d, len(I))
        closed = sum(
            binomial(f, beta) * card_R_beta_I(s0, f, g, d, beta)
            for beta in beta_range_excluded(s0, g, d)
            if beta <= f
        )
        ok = ok and closed == binomial(n, d) - binomial(n - g, d)
    acceptance_line(7, "support-count identities exact; closed forms match enumeration", ok)
    assert ok


def test_criterion_8_converse_sandwich():
    start = time.perf_counter()
    rng = random.Random(20240)
    checked = 0
    ok = True
    while checked < 50:
        n = rng.randint(5, 10)
        d = rng.choice([2, 2, 2, 3])
        if d >= n:
            continue
        N = rng.randint(2, 3)
        try:
            params = derive_parameters(n, d, N)
        except Exception:
            continue
        universe = list(enumerate_lex(n, d))
        edges = rng.sample(universe, min(rng.randint(1, 14), len(universe)))
        tasks = TaskSet.from_edges(n, d, edges)
        phi = len(tasks) / binomial(n, d)
        pi_star, _ = brute_force_pi_star(tasks, N)
        ic_pi = pi_of(refine(build_base_partition(params), tasks))
        ok = ok and pi_star >= pi_lower_bound_int(n, d, N, phi) and ic_pi >= pi_star
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    acceptance_line(
        8, f"pi* >= ceil(phi^(1/d) n/N^(1/d)) and pi_IC >= pi* on 50 instances ({elapsed:.1f}s)", ok
    )
    assert ok


def test_criterion_9_balance_monte_carlo():
    start = time.perf_counter()
    summary = monte_carlo_delta(200, 2, 10, phi=0.5, trials=200, master_seed=2024)
    elapsed = time.perf_counter() - start
    successes = round(summary.fraction_delta_le_5 * summary.trials)
    ok = (
        successes >= 193
        and not summary.vacuous
        and summary.phi_min < 0.5
        and elapsed < 60.0
    )
    acceptance_line(
        9,
        f"delta_X <= 5 in {successes}/200 seeded trials at n=200 d=2 N=10 phi=0.5 "
        f"(phi_min={summary.phi_min:.3f}, {elapsed:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_10_replication_factor_bounds(grid_points):
    bad = []
    for p in grid_points:
        if p.d != 2:
            continue
        if p.case == "divisible":
            if not p.arf < math.sqrt(2 * p.N):
                bad.append(p)
        elif p.N >= 3:
            if not p.arf <= 2 * math.sqrt(2 * p.N):
                bad.append(p)
    ok = not bad
    acceptance_line(
        10, "ARF < sqrt(2N) (divisible) and <= 2*sqrt(2N) (non-divisible, N>=3) for d=2", ok
    )
    assert ok, bad[:5]


def test_criterion_11_blindness():
    # at phi = 0.02 some group misses files of its placement, so a placement
    # taken from the round's tasks would differ from the blind one
    specs = [ThinningSpec(phi=phi, seed=seed) for seed, phi in enumerate((0.3, 0.6, 1.0, 0.02))]
    result = simulate_rounds(60, 2, 6, specs)
    ok = (
        result.verdict == "PASS"
        and result.placement_identical
        and result.feasible
    )
    acceptance_line(
        11, "4-round simulation: byte-identical placements, every round feasible", ok
    )
    assert ok


def test_criterion_12_functional_consistency():
    points = [
        (6, 2, 3), (7, 2, 3), (11, 2, 3), (12, 2, 7), (9, 2, 40), (2, 2, 5),
        (12, 3, 4), (13, 3, 4), (14, 3, 10), (16, 4, 5), (18, 4, 15),
        (30, 2, 21), (30, 3, 9), (40, 2, 36), (8, 2, 6), (6, 6, 10),
    ]
    ok = True
    tuples = 0
    for n, d, N in points:
        params = derive_parameters(n, d, N)
        base = build_base_partition(params)
        tuples += binomial(n, d)
        ok = ok and all(
            assign_base_group(t, params) == b
            for b, g in enumerate(base.groups, start=1)
            for t in g
        )
    acceptance_line(
        12, f"closed-form assignment matches membership on all {tuples} tuples of {len(points)} points", ok
    )
    assert ok


def test_grid_fixture_arf_agrees_with_direct_recomputation(grid_points):
    sample = [p for p in grid_points if (p.n, p.d, p.N) in {(6, 2, 3), (30, 2, 21)}]
    assert sample
    for p in sample:
        base = build_base_partition(derive_parameters(p.n, p.d, p.N))
        assert math.isclose(arf_of(base), p.arf, rel_tol=1e-12)
