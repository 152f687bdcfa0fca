import ast
import inspect
import math

import pytest

from ic_alloc import harness
from ic_alloc.baselines import ThinningSpec
from ic_alloc.design import Partition, footprint, refine
from ic_alloc.errors import InvalidPhi, SchemaError
from ic_alloc.formats import emit_sweep_csv
from ic_alloc.harness import (
    MonteCarloSummary,
    SweepRecord,
    grid_points,
    monte_carlo_delta,
    simulate_rounds,
    sweep,
    trial_seed,
)


def test_trial_seed_deterministic_and_spread():
    seeds = [trial_seed(42, i) for i in range(10)]
    assert seeds == [trial_seed(42, i) for i in range(10)]
    assert len(set(seeds)) == 10
    assert trial_seed(43, 0) != trial_seed(42, 0)


def test_monte_carlo_phi_one_has_no_randomness():
    s = monte_carlo_delta(30, 2, 5, phi=1.0, trials=5, master_seed=1)
    assert s.fraction_delta_le_5 == 1.0
    assert s.min_delta == s.max_delta
    assert math.isclose(s.mean_delta, s.min_delta, rel_tol=1e-12)
    assert s.max_delta <= 4.0


def test_monte_carlo_deterministic():
    a = monte_carlo_delta(30, 2, 5, phi=0.5, trials=20, master_seed=9)
    b = monte_carlo_delta(30, 2, 5, phi=0.5, trials=20, master_seed=9)
    assert a == b
    c = monte_carlo_delta(30, 2, 5, phi=0.5, trials=20, master_seed=10)
    assert c != a


def test_monte_carlo_golden():
    # exact values, so no change to how a trial counts its loads can move a bit
    assert monte_carlo_delta(30, 2, 5, 0.5, 20, 9) == MonteCarloSummary(
        n=30, d=2, N=5, phi=0.5, trials=20, master_seed=9,
        fraction_delta_le_5=1.0,
        min_delta=1.5121951219512195,
        mean_delta=1.6551045100788897,
        max_delta=1.7826086956521738,
        phi_min=7.7121565854506375,
        vacuous=True,
    )


def test_monte_carlo_reports_vacuous_threshold():
    s = monte_carlo_delta(100, 2, 10, phi=0.9, trials=3, master_seed=0)
    assert s.vacuous
    assert s.phi_min > 1.0


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo_delta(30, 2, 5, phi=0.5, trials=0, master_seed=0)


def test_grid_points_cartesian_product():
    axes = {"n": [6, 7], "d": [2], "N": [3], "phi": [1.0, 0.5], "seed": [0]}
    pts = grid_points(axes)
    assert len(pts) == 4
    assert pts[0] == (6, 2, 3, 1.0, 0)


@pytest.mark.parametrize("axis", ["n", "d", "N", "seed"])
def test_grid_points_refuses_non_integer_axes(axis):
    # phi takes numbers in [0, 1]; the other axes only JSON integers, never rounded
    axes = {"n": [6], "d": [2], "N": [3], "phi": [1], "seed": [0]}
    assert grid_points(axes) == [(6, 2, 3, 1.0, 0)]
    for bad in (6.0, 40.7, True):
        with pytest.raises(SchemaError):
            grid_points({**axes, axis: [bad]})


@pytest.mark.parametrize("phi", [1.5, -0.5, float("nan")])
def test_grid_points_refuses_phi_outside_the_unit_interval(phi):
    with pytest.raises(SchemaError, match="sweep axis 'phi' must lie in \\[0, 1\\]"):
        grid_points({"n": [6], "d": [2], "N": [3], "phi": [0.5, phi]})


@pytest.mark.parametrize("driver", [monte_carlo_delta, simulate_rounds, sweep])
def test_drivers_leave_the_build_and_refinement_to_one_helper(driver):
    calls = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(driver)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_refined" in calls
    assert not calls & {"derive_parameters", "build_base_partition", "thin", "refine"}


def test_phi_is_refused_before_the_build(monkeypatch):
    def no_build(params):
        raise AssertionError("built before phi was checked")

    monkeypatch.setattr(harness, "build_base_partition", no_build)
    with pytest.raises(InvalidPhi):
        monte_carlo_delta(30, 2, 5, phi=-1.0, trials=2, master_seed=0)
    # an unsupported instance too: the phi check comes before the skip record
    for point in [(30, 2, 5, 1.5, 0), (6, 2, 6, -0.5, 0)]:
        with pytest.raises(InvalidPhi):
            sweep([point])


def test_sweep_single_point_matches_worked_values():
    [rec] = sweep([(6, 2, 3, 1.0, 0)])
    assert rec.case == "divisible"
    assert (rec.k, rec.s, rec.g) == (3, 2, 0)
    assert rec.pi == 4
    assert math.isclose(rec.pi_lb, 6 / math.sqrt(3), rel_tol=1e-9)
    assert math.isclose(rec.delta, 1.2, rel_tol=1e-12)
    assert rec.delta_x == rec.delta
    assert rec.arf == 2.0
    assert rec.bounds_ok


def test_sweep_linear_scaling_in_n():
    records = sweep([(n, 2, 15, 1.0, 0) for n in (60, 120, 240)])
    assert [r.pi for r in records] == [20, 40, 80]  # pi doubles with n at fixed N
    assert all(r.bounds_ok for r in records)


def test_sweep_unsupported_points_become_skip_records():
    records = sweep([(6, 2, 6, 1.0, 0), (6, 2, 3, 1.0, 0)])
    assert records[0].case == "unsupported"
    assert records[0].error is not None
    assert records[0].pi is None
    assert records[1].pi == 4


def test_a_point_past_the_digit_limit_becomes_a_skip_record():
    # C(10^7, 1000) has 4,433 digits, too many for str()
    for phi in (1.0, 0.5):
        [rec] = sweep([(10**7, 1000, 5, phi, 1)])
        assert rec.case == "unsupported" and rec.pi is None
        assert "2.3e4432 tuples" in rec.error


def test_sweep_empty_grid():
    assert sweep([]) == []


def test_sweep_bounds_hold_on_mixed_grid():
    pts = grid_points(
        {
            "n": [6, 7, 11, 12, 13, 30],
            "d": [2, 3],
            "N": [1, 3, 7, 10],
            "phi": [1.0, 0.5],
            "seed": [0],
        }
    )
    records = sweep(pts)
    supported = [r for r in records if r.error is None]
    assert supported and all(r.bounds_ok for r in supported)


def test_sweep_thinned_point_is_deterministic():
    a = sweep([(30, 2, 5, 0.5, 3)])
    b = sweep([(30, 2, 5, 0.5, 3)])
    assert a == b
    assert isinstance(a[0], SweepRecord)
    assert a[0].delta_x > 0


def test_sweep_thinned_point_golden_csv():
    # a phi < 1 row, so delta_X comes from the refined partition
    assert emit_sweep_csv(sweep([(30, 2, 5, 0.5, 3)])) == (
        "n,d,N,phi,seed,case,k,s,g,pi,pi_lb,gap,delta,delta_X,arf,bounds_ok\n"
        "30,2,5,0.5,3,divisible,3,10,0,20,9.486832980505138,1.49071198499986,"
        "1.6551724137931034,1.6,3.0,true\n"
    )


def test_simulate_rounds_blindness_verdict():
    specs = [ThinningSpec(phi=phi, seed=s) for s, phi in enumerate((0.3, 0.6, 1.0))]
    result = simulate_rounds(60, 2, 6, specs)
    assert result.verdict == "PASS"
    assert result.placement_identical and result.feasible
    assert len(result.reports) == 3
    deltas = {round(r.delta, 9) for r in result.reports}
    assert len(deltas) == 3  # three distinct task sets, three balance factors
    assert result.placement_pi == result.reports[-1].pi  # phi=1 round uses everything


def test_simulate_rounds_fails_when_the_placement_follows_the_tasks(monkeypatch):
    # a refine that places each group on its own footprint over X; a sparse
    # round leaves most of a group's files unused, so its placement shrinks
    def leaky_refine(base, tasks):
        fp = refine(base, tasks)
        return Partition(**{**fp.__dict__, "placement": tuple(footprint(g) for g in fp.groups)})

    specs = [ThinningSpec(phi=0.02, seed=1), ThinningSpec(phi=0.02, seed=2)]
    assert simulate_rounds(60, 2, 6, specs).verdict == "PASS"
    monkeypatch.setattr(harness, "refine", leaky_refine)
    result = simulate_rounds(60, 2, 6, specs)
    assert result.feasible and not result.placement_identical
    assert result.verdict == "FAIL"


def test_simulate_rounds_fails_when_a_group_leaves_its_placement(monkeypatch):
    # a refine that moves one tuple into a group whose entry lacks one of its files
    def stray_refine(base, tasks):
        fp = refine(base, tasks)
        groups = list(fp.groups)
        i = next(i for i, g in enumerate(groups) if g)
        t, groups[i] = groups[i][0], groups[i][1:]
        j = next(j for j, held in enumerate(fp.placement) if not set(t) <= set(held))
        groups[j] = tuple(sorted(groups[j] + (t,)))
        return Partition(**{**fp.__dict__, "groups": tuple(groups)})

    specs = [ThinningSpec(phi=0.5, seed=1)]
    assert simulate_rounds(60, 2, 6, specs).verdict == "PASS"
    monkeypatch.setattr(harness, "refine", stray_refine)
    result = simulate_rounds(60, 2, 6, specs)
    assert result.placement_identical and not result.feasible
    assert result.verdict == "FAIL"


def test_simulate_single_round_phi_one_equals_plain_partition():
    result = simulate_rounds(12, 2, 3, [ThinningSpec(phi=1.0, seed=0)])
    assert result.verdict == "PASS"
    assert result.reports[0].task_count == 66


def test_simulate_identical_rounds_identical_reports():
    spec = ThinningSpec(phi=0.5, seed=77)
    result = simulate_rounds(20, 2, 3, [spec, spec])
    assert result.reports[0] == result.reports[1]


def test_simulate_needs_rounds():
    with pytest.raises(ValueError):
        simulate_rounds(10, 2, 3, [])
