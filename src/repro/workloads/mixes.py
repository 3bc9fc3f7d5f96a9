"""Workload registry and the two evaluation suites.

The paper evaluates SPEC CPU2006 SimPoints split into MLP-sensitive and
MLP-insensitive groups (Section 4.1); the registry below provides the
synthetic stand-ins and the same two groupings.  ``astar`` and ``milc``
map to the two individually-plotted checkpoints.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads import kernels
from repro.workloads.base import MLP_INSENSITIVE, MLP_SENSITIVE, Workload

_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "indirect_fig2": kernels.indirect_fig2,
    "ptrchase_astar": kernels.ptrchase_astar,
    "sparse_gather": kernels.sparse_gather,
    "hash_probe": kernels.hash_probe,
    "lattice_milc": kernels.lattice_milc,
    "stream_triad": kernels.stream_triad,
    "compute_fp": kernels.compute_fp,
    "compute_int": kernels.compute_int,
    "small_ws_ring": kernels.small_ws_ring,
    "stencil_small": kernels.stencil_small,
    "branchy_compute": kernels.branchy_compute,
    "btree_probe": kernels.btree_probe,
    "spmv_csr": kernels.spmv_csr,
    "memset_stream": kernels.memset_stream,
    "blocked_mm": kernels.blocked_mm,
}

#: each kernel's category, declared so that planning a suite builds
#: nothing (a test checks it against the built workloads)
CATEGORY_OF: Dict[str, str] = {
    "indirect_fig2": MLP_SENSITIVE,
    "ptrchase_astar": MLP_SENSITIVE,
    "sparse_gather": MLP_SENSITIVE,
    "hash_probe": MLP_SENSITIVE,
    "lattice_milc": MLP_SENSITIVE,
    "stream_triad": MLP_INSENSITIVE,
    "compute_fp": MLP_INSENSITIVE,
    "compute_int": MLP_INSENSITIVE,
    "small_ws_ring": MLP_INSENSITIVE,
    "stencil_small": MLP_INSENSITIVE,
    "branchy_compute": MLP_INSENSITIVE,
    "btree_probe": MLP_SENSITIVE,
    "spmv_csr": MLP_SENSITIVE,
    "memset_stream": MLP_INSENSITIVE,
    "blocked_mm": MLP_INSENSITIVE,
}

#: aliases matching the paper's individually-reported checkpoints
ALIASES = {
    "astar": "ptrchase_astar",
    "milc": "lattice_milc",
}


def workload_names() -> List[str]:
    return sorted(_FACTORIES)


def get_workload(name: str) -> Workload:
    """Build the named workload (accepts paper aliases)."""
    name = ALIASES.get(name, name)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {workload_names()}"
        ) from None


def suite_names(category: str) -> List[str]:
    """Names of the registered workloads in *category*, registry order
    (from the declared categories: no kernel is built)."""
    return [name for name in _FACTORIES if CATEGORY_OF[name] == category]


def mlp_sensitive_suite() -> List[Workload]:
    return [_FACTORIES[name]() for name in suite_names(MLP_SENSITIVE)]


def mlp_insensitive_suite() -> List[Workload]:
    return [_FACTORIES[name]() for name in suite_names(MLP_INSENSITIVE)]


def full_suite() -> List[Workload]:
    return [factory() for factory in _FACTORIES.values()]
