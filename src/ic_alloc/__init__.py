"""Blind data-and-task allocation for distributed computing.

Partitions any d-uniform task set over n files across N workers through a
fixed, task-independent file placement built from interweaved cliques of
file families, with verified communication- and computation-cost
guarantees, converse bounds, baselines, and experiment drivers.
"""

import importlib

__version__ = "0.1.0"

# the public names by defining module; a module is imported on the first use of
# one of its names (PEP 562), so a CLI child loads only what its subcommand runs
_EXPORTS = {
    "baselines": ("ThinningSpec", "lex_partition", "random_partition", "thin"),
    "combinatorics": ("binomial", "enumerate_lex", "lex_rank", "lex_unrank"),
    "counting": ("block_bounds", "card_C_beta", "card_R_beta_I", "m_beta", "phi_min",
                 "pi_lower_bound", "t_beta"),
    "design": ("ICParameters", "Partition", "assign_base_group", "assign_tasks",
               "build_base_partition", "build_families", "derive_parameters",
               "partition_from_groups", "refine"),
    "harness": ("monte_carlo_delta", "simulate_rounds", "sweep"),
    "metrics": ("CostReport", "arf_of", "delta_of", "full_report", "pi_of"),
    "oracle": ("brute_force_pi_star",),
    "tasks": ("TaskSet",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
