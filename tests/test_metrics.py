import math
import random
from itertools import combinations

import pytest

from ic_alloc.baselines import ThinningSpec, random_partition, thin
from ic_alloc.design import (
    build_base_partition,
    derive_parameters,
    partition_from_groups,
    refine,
)
from ic_alloc.metrics import arf_of, delta_of, full_report, guarantee_regime, pi_of
from ic_alloc.tasks import TaskSet

EXAMPLE1_A = [[(1, 2), (1, 3)], [(2, 3), (4, 5), (2, 7), (3, 6)]]
EXAMPLE1_B = [[(1, 2), (1, 3), (4, 5)], [(2, 3), (2, 7), (3, 6)]]


def test_pi_of_goldens():
    A = partition_from_groups(7, 2, EXAMPLE1_A)
    B = partition_from_groups(7, 2, EXAMPLE1_B)
    assert pi_of(A) == 6
    assert pi_of(B) == 5
    everything = partition_from_groups(6, 2, [list(TaskSet.full(6, 2).edges)])
    assert pi_of(everything) == 6


def test_delta_of_goldens():
    A = partition_from_groups(7, 2, EXAMPLE1_A)
    B = partition_from_groups(7, 2, EXAMPLE1_B)
    assert math.isclose(delta_of(A), 4 / 3, rel_tol=1e-12)
    assert delta_of(B) == 1.0
    ic = build_base_partition(derive_parameters(6, 2, 3))
    assert math.isclose(delta_of(ic), 6 / 5, rel_tol=1e-12)


def test_delta_of_empty_partition_is_zero():
    empty = partition_from_groups(5, 2, [[], []])
    assert delta_of(empty) == 0.0


def test_arf_of_goldens():
    ic = build_base_partition(derive_parameters(6, 2, 3))
    assert arf_of(ic) == 2.0
    assert arf_of(ic) < math.sqrt(2 * 3)
    B = partition_from_groups(7, 2, EXAMPLE1_B)
    assert math.isclose(arf_of(B), 9 / 7, rel_tol=1e-12)
    solo = partition_from_groups(6, 2, [list(TaskSet.full(6, 2).edges)])
    assert arf_of(solo) == 1.0


def test_arf_never_exceeds_N_pi_over_n():
    rng = random.Random(3)
    for seed in range(10):
        n, d, N = rng.choice([(10, 2, 3), (12, 3, 4), (9, 2, 2)])
        universe = list(TaskSet.full(n, d).edges)
        edges = rng.sample(universe, rng.randint(1, len(universe)))
        fp = random_partition(TaskSet.from_edges(n, d, edges), N, seed)
        assert arf_of(fp) <= N * pi_of(fp) / n + 1e-9


def test_full_report_worked_case1():
    params = derive_parameters(6, 2, 3)
    report = full_report(build_base_partition(params), params, 1.0)
    assert report.pi == 4
    assert math.isclose(report.pi_lb, 3.4641016, rel_tol=1e-6)
    assert report.pi_lb_int == 4
    assert math.isclose(report.gap, 4 / report.pi_lb, rel_tol=1e-12)
    assert math.isclose(report.delta, 1.2, rel_tol=1e-12)
    assert report.arf == 2.0
    assert report.bounds_ok
    names = {b.name for b in report.bounds}
    assert {"pi_le_sd", "pi_ge_lower_bound", "arf_le_N_pi_over_n", "arf_lt_sqrt_2N"} <= names


def test_full_report_worked_case2():
    params = derive_parameters(7, 2, 3)
    report = full_report(build_base_partition(params), params, 1.0)
    assert report.pi <= 5
    by_name = {b.name: b for b in report.bounds}
    assert by_name["pi_le_s0d_plus_g"].value == 5
    assert report.bounds_ok


def test_full_report_single_worker():
    params = derive_parameters(8, 2, 1)
    report = full_report(build_base_partition(params), params, 1.0)
    assert report.pi == 8
    assert report.delta == 1.0
    assert math.isclose(report.gap, 1.0, rel_tol=1e-12)


def test_full_report_empty_tasks():
    params = derive_parameters(6, 2, 3)
    base = build_base_partition(params)
    report = full_report(refine(base, TaskSet(6, 2, ())), params)
    assert report.pi == 0 and report.delta == 0.0 and report.gap == 0.0
    assert report.task_count == 0


def test_full_report_defaults_phi_to_observed_density():
    params = derive_parameters(6, 2, 3)
    base = build_base_partition(params)
    tasks = TaskSet.from_edges(6, 2, [(1, 2), (3, 5), (1, 6)])
    report = full_report(refine(base, tasks), params)
    assert math.isclose(report.phi, 3 / 15, rel_tol=1e-12)


def test_gap_at_most_4e_in_guarantee_regime():
    for n, d, N in [(64, 2, 10), (100, 2, 40), (96, 3, 20)]:
        params = derive_parameters(n, d, N)
        assert guarantee_regime(params)
        report = full_report(build_base_partition(params), params, 1.0)
        assert report.gap <= 4 * math.e + 1e-9
        assert report.bounds_ok


def test_baseline_report_has_no_construction_bounds():
    fp = partition_from_groups(7, 2, EXAMPLE1_B)
    report = full_report(fp)
    assert report.case is None
    names = {b.name for b in report.bounds}
    assert "pi_le_sd" not in names and "pi_le_s0d_plus_g" not in names
    assert report.bounds_ok  # the universal checks hold for any valid partition


# The README's table of structured task sets: the blind construction's
# delta_X for each family, as (|X|, largest refined group, delta_X rounded as
# the README shows it).  delta_X = largest / ceil(|X| / N), so the two counts
# pin it exactly.
STRUCTURED_X = {
    (96, 30): {
        "random thinning, phi=0.3": (42796, 2188, 1.53),
        "every tuple inside files 1..64": (41664, 7144, 5.14),
        "window: t_d - t_1 < 48": (69184, 7144, 3.10),
        "star: t_1 <= 8": (33144, 3572, 3.23),
        "one file from each third of [n]": (32768, 4096, 3.75),
        "sum of t even": (71440, 3575, 1.50),
    },
    (121, 40): {
        "random thinning, phi=0.3": (86132, 2537, 1.18),
        "every tuple inside files 1..64": (41664, 3472, 3.33),
        "window: t_d - t_1 < 48": (96209, 7239, 3.01),
        "star: t_1 <= 8": (53844, 4744, 3.52),
        "one file from each third of [n]": (65600, 3119, 1.90),
        "sum of t even": (144020, 4130, 1.15),
    },
}


def _structured_families(n):
    thirds = [(1 + n * i // 3, n * (i + 1) // 3) for i in range(3)]
    keep = {
        "every tuple inside files 1..64": lambda t: t[2] <= 64,
        "window: t_d - t_1 < 48": lambda t: t[2] - t[0] < 48,
        "star: t_1 <= 8": lambda t: t[0] <= 8,
        "one file from each third of [n]": lambda t: all(
            lo <= x <= hi for x, (lo, hi) in zip(t, thirds)),
        "sum of t even": lambda t: sum(t) % 2 == 0,
    }
    yield "random thinning, phi=0.3", thin(n, 3, ThinningSpec(phi=0.3, seed=1))
    for name, wanted in keep.items():
        yield name, TaskSet.from_edges(n, 3, filter(wanted, combinations(range(1, n + 1), 3)))


@pytest.mark.parametrize("n, N", list(STRUCTURED_X))
def test_structured_task_sets_delta_x(n, N):
    params = derive_parameters(n, 3, N)
    base = build_base_partition(params)
    for name, tasks in _structured_families(n):
        size, largest, shown = STRUCTURED_X[n, N][name]
        refined = refine(base, tasks)
        assert (len(tasks), max(map(len, refined.groups))) == (size, largest), name
        assert delta_of(refined) == largest / math.ceil(size / N), name
        assert round(delta_of(refined), 2) == shown, name
        # the placement ignores X: pi keeps its bound on every family
        assert full_report(refined, params).bounds_ok, name
