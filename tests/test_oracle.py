import random

import pytest
from conftest import counts_by_beta, support_classes

from ic_alloc.combinatorics import binomial, enumerate_lex
from ic_alloc.counting import pi_lower_bound_int
from ic_alloc.design import build_base_partition, derive_parameters, refine
from ic_alloc.errors import InstanceTooLarge
from ic_alloc.metrics import pi_of
from ic_alloc.oracle import brute_force_pi_star
from ic_alloc.tasks import TaskSet

EXAMPLE1_X = TaskSet.from_edges(7, 2, [(1, 2), (1, 3), (2, 3), (4, 5), (3, 6), (2, 7)])


def footprint_sizes(groups):
    return [len({x for t in g for x in t}) for g in groups]


def test_pi_star_complete_6_2_with_3_workers():
    pi_star, witness = brute_force_pi_star(TaskSet.full(6, 2), 3)
    assert pi_star == 4
    assert sum(len(g) for g in witness) == 15
    assert max(footprint_sizes(witness)) == 4


def test_pi_star_example1_two_workers():
    # 5 is achievable (and pairs with a perfectly balanced split), but the
    # unconstrained optimum is 4: {12,13,23,36} + {45,27}
    pi_star, witness = brute_force_pi_star(EXAMPLE1_X, 2)
    assert pi_star == 4
    assert max(footprint_sizes(witness)) == 4
    assert sorted(t for g in witness for t in g) == list(EXAMPLE1_X.edges)


def test_pi_star_single_worker_is_total_footprint():
    pi_star, witness = brute_force_pi_star(EXAMPLE1_X, 1)
    assert pi_star == 7
    assert witness == [list(EXAMPLE1_X.edges)]


def test_pi_star_empty_task_set():
    pi_star, witness = brute_force_pi_star(TaskSet(5, 2, ()), 3)
    assert pi_star == 0
    assert witness == [[], [], []]


def test_pi_star_matches_plain_exhaustive():
    # cross-check the pruned search against unpruned enumeration
    from itertools import product

    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(5, 8)
        universe = list(enumerate_lex(n, 2))
        edges = rng.sample(universe, rng.randint(2, 8))
        tasks = TaskSet.from_edges(n, 2, edges)
        N = rng.randint(2, 3)
        best = None
        for assign in product(range(N), repeat=len(edges)):
            fps = [set() for _ in range(N)]
            for e, b in zip(tasks.edges, assign):
                fps[b].update(e)
            v = max(len(f) for f in fps)
            best = v if best is None else min(best, v)
        pi_star, _ = brute_force_pi_star(tasks, N)
        assert pi_star == best


def test_caps_enforced():
    with pytest.raises(InstanceTooLarge):
        brute_force_pi_star(TaskSet.full(7, 2), 2)  # 21 edges > 16
    with pytest.raises(InstanceTooLarge):
        brute_force_pi_star(EXAMPLE1_X, 5)  # N > 4


def test_classify_by_support_goldens():
    assert counts_by_beta(6, 2, 2) == {1: 3, 2: 12}
    assert counts_by_beta(4, 2, 2) == {1: 2, 2: 4}
    assert counts_by_beta(4, 4, 2) == {2: 1}
    assert support_classes(4, 2, 2) == {
        (False, (1,)): [(1, 2)],
        (False, (1, 2)): [(1, 3), (1, 4), (2, 3), (2, 4)],
        (False, (2,)): [(3, 4)],
    }


def test_classify_totals():
    for n, d, s in [(6, 2, 2), (12, 3, 4), (9, 3, 3)]:
        classes = support_classes(n, d, s)
        assert sum(map(len, classes.values())) == binomial(n, d)
        assert not any(touches_tail for touches_tail, _ in classes)


def test_classify_excluded_totals():
    n, d, s0, g = 11, 2, 3, 2
    classes = support_classes(n, d, s0, g)
    excluded = sum(len(m) for (touches_tail, _), m in classes.items() if touches_tail)
    assert excluded == binomial(n, d) - binomial(n - g, d)
    assert sum(map(len, classes.values())) == binomial(n, d)


def test_sandwich_on_random_tiny_instances():
    rng = random.Random(99)
    done = 0
    while done < 25:
        n = rng.randint(5, 10)
        d = rng.choice([2, 2, 3])
        if d > n:
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
        assert pi_star >= pi_lower_bound_int(n, d, N, phi)
        ic_pi = pi_of(refine(build_base_partition(params), tasks))
        assert ic_pi >= pi_star
        done += 1
