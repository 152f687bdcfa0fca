"""Blind data-and-task allocation for distributed computing.

Partitions any d-uniform task set over n files across N workers through a
fixed, task-independent file placement built from interweaved cliques of
file families, with verified communication- and computation-cost
guarantees, converse bounds, baselines, and experiment drivers.
"""

from .baselines import ThinningSpec, lex_partition, random_partition, thin
from .combinatorics import binomial, enumerate_lex, lex_rank, lex_unrank
from .counting import (
    block_bounds,
    card_C_beta,
    card_R_beta_I,
    m_beta,
    phi_min,
    pi_lower_bound,
    t_beta,
)
from .design import (
    ICParameters,
    Partition,
    assign_base_group,
    assign_tasks,
    build_base_partition,
    build_families,
    derive_parameters,
    partition_from_groups,
    refine,
)
from .harness import monte_carlo_delta, simulate_rounds, sweep
from .metrics import CostReport, arf_of, delta_of, full_report, pi_of
from .oracle import brute_force_pi_star
from .tasks import TaskSet

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "ICParameters",
    "Partition",
    "TaskSet",
    "ThinningSpec",
    "arf_of",
    "assign_base_group",
    "assign_tasks",
    "binomial",
    "block_bounds",
    "brute_force_pi_star",
    "build_base_partition",
    "build_families",
    "card_C_beta",
    "card_R_beta_I",
    "delta_of",
    "derive_parameters",
    "enumerate_lex",
    "full_report",
    "lex_partition",
    "lex_rank",
    "lex_unrank",
    "m_beta",
    "monte_carlo_delta",
    "partition_from_groups",
    "phi_min",
    "pi_lower_bound",
    "pi_of",
    "random_partition",
    "refine",
    "simulate_rounds",
    "sweep",
    "t_beta",
    "thin",
]
