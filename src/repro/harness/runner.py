"""Legacy simulation-runner entry points, now thin session shims.

The paper warms caches for 250 M instructions and then measures a 10 M
instruction SimPoint.  The execution recipe mirrors that shape (see
:meth:`repro.api.session.Session.build_pipeline`):

1. generate ``warmup + measure`` dynamic instructions from the workload,
2. compute the oracle annotation over the *full* trace (miss levels,
   Urgent/Non-Ready ground truth) — also used to warm the online
   structures,
3. warm the memory hierarchy, branch predictor and LTP classifier on
   the warmup slice (functionally, no timing),
4. run the timing pipeline over the measured slice.

All mutable state — the bounded trace cache (whose per-workload
entries also hold the oracle annotations) and the memory+disk result
cache — is owned by :class:`repro.api.session.Session` objects; this
module keeps the historical functional API
(:func:`run_sim`, :func:`run_sims`, :func:`get_trace`,
:func:`get_oracle`, :func:`clear_memory_caches`) as shims over the
process-global default session, so existing call sites and the
differential-equivalence guarantees keep working unchanged.  The pure
warm-up helpers live here because they carry no state.

Backward-compatible cache access: attribute reads of ``_trace_cache``
and ``_result_cache`` resolve to the default session's objects via
module ``__getattr__`` **and emit a
``DeprecationWarning``** (the tier-1 suite escalates it to an error —
new code must hold a :class:`repro.api.session.Session` instead);
assigning ``runner._result_cache`` (as cache-isolation test fixtures
do) routes the shims through the assigned cache.
"""

from __future__ import annotations

import os
import warnings
import weakref
from typing import Iterable, List, Optional

from repro.core.branch import GsharePredictor
from repro.core.params import CoreParams
from repro.core.pipeline import CODE_BASE, INST_BYTES
from repro.harness.config import SimConfig
from repro.isa.trace import DynInst
from repro.ltp.oracle import OracleInfo
from repro.memory.cache import block_of
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import get_workload

#: LRU caps of the default in-process memoisation (per session: traces
#: per workload, oracle annotations per trace)
TRACE_CACHE_MAX = 8
ORACLE_CACHE_MAX = 16

#: module attributes resolved against the default session on first use
_SESSION_ATTRS = ("_trace_cache", "_result_cache")

#: result caches ever handed out as *the default session's* — a module
#: global equal to one of these is a restored read-back (e.g. a
#: monkeypatch teardown), not an explicit override, and must keep
#: tracking the current default session
_default_result_caches: "weakref.WeakSet" = weakref.WeakSet()


def __getattr__(name: str):
    if name in _SESSION_ATTRS:
        warnings.warn(
            f"runner.{name} is deprecated; hold a repro.api.Session "
            f"(or repro.api.default_session()) and use its "
            f"{'results' if name == '_result_cache' else name} instead",
            DeprecationWarning, stacklevel=2)
        from repro.api.session import default_session
        session = default_session()
        if name == "_result_cache":
            _default_result_caches.add(session.results)
        return (session.results if name == "_result_cache"
                else session._trace_cache)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _module_get_workload(name: str):
    """Resolve workloads through this module's ``get_workload`` global
    at call time, so monkeypatched stand-ins keep working."""
    return get_workload(name)


def _shim_session():
    """The session the legacy entry points run against.

    A view of the process-global default session that (a) uses the
    ``runner._result_cache`` override when a caller (test fixture) has
    assigned one, and (b) resolves workloads through this module's
    ``get_workload`` global so monkeypatched stand-ins apply to every
    entry point, exactly as before the session refactor.
    """
    from repro.api.session import default_session
    session = default_session()
    override = globals().get("_result_cache")
    results = session.results
    if override is not None and override is not results \
            and override not in _default_result_caches:
        results = override
    view = session._with_result_cache(results)
    view._workload_factory = _module_get_workload
    return view


# ======================================================================
# pure warm-up helpers (stateless)
# ======================================================================
def warm_hierarchy(hierarchy: MemoryHierarchy, warmup_slice,
                   program_len: int, warm_regions=()) -> None:
    # Hot metadata a paper-scale warmup (250 M instructions) would leave
    # resident: the kernels re-walk these small arrays with a period far
    # longer than our warmup slice, so install them in the L2/L3 first.
    for base, words in warm_regions:
        for block in range(block_of(base), block_of(base + words * 8) + 1):
            hierarchy.l2.insert(block)
            hierarchy.l3.insert(block)
    for dyn in warmup_slice:
        if dyn.is_mem:
            hierarchy.functional_access(dyn.addr, is_store=dyn.is_store,
                                        pc=dyn.pc)
    # warm the instruction path: kernels are tiny, touch every block once
    for pc in range(program_len):
        block = block_of(CODE_BASE + pc * INST_BYTES)
        hierarchy.l1i.insert(block)
        hierarchy.l2.insert(block)
        hierarchy.l3.insert(block)


def warm_branch_predictor(bpred: GsharePredictor, warmup_slice) -> None:
    for dyn in warmup_slice:
        if dyn.is_branch:
            bpred.predict_and_update(dyn.pc, dyn.taken)



# ======================================================================
# legacy functional API (shims over the default session)
# ======================================================================
def get_trace(workload_name: str, length: int) -> List[DynInst]:
    """Build (and memoise) the first *length* instructions of a workload.

    Only the longest trace per workload is retained; shorter requests
    return a slice of it, so distinct sweep lengths never pile up
    duplicate copies in memory.
    """
    return _shim_session().get_trace(workload_name, length)


def get_oracle(workload_name: str, length: int, core: CoreParams,
               trace: Optional[List[DynInst]] = None) -> OracleInfo:
    """Oracle annotation of the first *length* instructions (cached).

    *trace* is accepted for backward compatibility; the annotation is
    always computed over the session's own (identical) trace.
    """
    return _shim_session().get_oracle(workload_name, length, core)


def run_sim_result(config: SimConfig, use_cache: bool = True):
    """Run one simulation on the default session; return a
    :class:`repro.api.result.SimResult` (the shim-aware equivalent of
    ``Session.run``, used by :func:`run_sim`, the CLI and pool
    workers)."""
    return _shim_session().run(config, use_cache=use_cache)


def run_sim(config: SimConfig, use_cache: bool = True) -> dict:
    """Run one simulation; return the flattened statistics dict."""
    return run_sim_result(config, use_cache=use_cache).stats


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_sims(configs: Iterable[SimConfig], jobs: Optional[int] = None,
             use_cache: bool = True) -> List[dict]:
    """Run independent configurations, fanning out across processes.

    Results come back in the order of *configs* (deterministic
    aggregation regardless of worker scheduling).  Configurations whose
    results are already cached are resolved in-process; the rest are
    distributed over ``jobs`` workers (default :func:`default_jobs`)
    via :class:`repro.api.backends.ProcessPoolBackend`.  Workers
    populate the shared disk cache — its atomic replace-on-write keeps
    concurrent writers safe — and the parent re-inserts every result
    into its in-memory cache, so a subsequent sequential pass over the
    same sweep is free.
    """
    from repro.api.backends import ProcessPoolBackend
    # the pool backend degrades to in-process execution for jobs <= 1
    # or a single pending item, so it is the policy in both regimes
    backend = ProcessPoolBackend(jobs=jobs)
    results = _shim_session().run_many(configs, use_cache=use_cache,
                                       backend=backend)
    return [result.stats for result in results]


def clear_memory_caches() -> None:
    """Drop the in-process trace cache (tests use this)."""
    from repro.api.session import default_session
    default_session().clear_memory_caches(results=False)
