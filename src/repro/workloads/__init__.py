"""Synthetic SPEC-like workloads and the MLP-sensitive/-insensitive suites."""

from repro.workloads.base import (CATEGORIES, MLP_INSENSITIVE, MLP_SENSITIVE,
                                  Workload)
from repro.workloads.mixes import (ALIASES, full_suite, get_workload,
                                   mlp_insensitive_suite,
                                   mlp_sensitive_suite, suite_names,
                                   workload_names)

__all__ = [
    "ALIASES",
    "CATEGORIES",
    "MLP_INSENSITIVE",
    "MLP_SENSITIVE",
    "Workload",
    "full_suite",
    "get_workload",
    "mlp_insensitive_suite",
    "mlp_sensitive_suite",
    "suite_names",
    "workload_names",
]
