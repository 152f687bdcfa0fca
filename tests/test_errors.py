import pytest

from ic_alloc.baselines import ThinningSpec, lex_partition, random_partition
from ic_alloc.combinatorics import binomial
from ic_alloc.errors import ICAllocError, InvalidArgument
from ic_alloc.harness import monte_carlo_delta, simulate_rounds
from ic_alloc.oracle import brute_force_pi_star
from ic_alloc.tasks import TaskSet

X = TaskSet.full(6, 2)

CALLS = {
    "monte_carlo_delta-zero-trials": lambda: monte_carlo_delta(30, 2, 5, 0.5, 0, 3),
    "simulate_rounds-no-rounds": lambda: simulate_rounds(20, 2, 3, []),
    "lex_partition-zero-workers": lambda: lex_partition(X, 0),
    "random_partition-zero-workers": lambda: random_partition(X, 0, seed=1),
    "binomial-negative": lambda: binomial(-1, 2),
    "brute_force_pi_star-zero-workers": lambda: brute_force_pi_star(X, 0),
}


@pytest.mark.parametrize("case", list(CALLS))
def test_bad_argument_raises_invalid_argument(case):
    with pytest.raises(InvalidArgument) as err:
        CALLS[case]()
    # typed for the CLI, and still a ValueError for library callers
    assert isinstance(err.value, ICAllocError) and isinstance(err.value, ValueError)


def test_thinning_spec_has_phi_and_seed_only():
    assert ThinningSpec(0.5, 7) == ThinningSpec(phi=0.5, seed=7)
    with pytest.raises(TypeError):
        ThinningSpec(0.5, 7, "splitmix64-v1")
