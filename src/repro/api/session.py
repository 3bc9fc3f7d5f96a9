"""Sessions: explicit ownership of simulation state and execution.

A :class:`Session` owns all mutable simulation state:

* the bounded in-process **trace cache**: one :class:`PreparedWorkload`
  per workload (LRU beyond a cap) holding everything the points of
  that workload share -- what they need of the built workload, its
  longest trace, the kernel engine's predecode, the oracle annotations
  and the warmed memory-hierarchy and branch-predictor snapshots; a
  batched drive releases each entry after its workload's last batch,
* the **result cache** (memory + disk, directory configurable via
  ``Session(cache_dir=...)`` or the ``REPRO_CACHE_DIR`` env var),
* the **execution backend** used for batches
  (an in-process :class:`~repro.api.exec.PoolExecutor`, ``jobs=1``,
  by default).

Every simulated point goes through one recipe,
:meth:`Session.build_pipeline`, so a batch of points sharing a trace
pays for its preparation once without any batch-specific state.

Sessions are context managers — leaving the ``with`` block drops the
in-memory caches — and independent sessions never share state, so tests
and services can isolate cache lifetimes explicitly.  A process-global
default session (:func:`default_session`) runs the experiment harness,
the CLI's ``run`` command and pool workers.

The paper warms caches for 250 M instructions and then measures a 10 M
instruction SimPoint; :meth:`Session.build_pipeline` mirrors that
shape: generate ``warmup + measure`` instructions, annotate the full
trace with the oracle when the policy needs it, warm the memory
hierarchy and branch predictor functionally on the warmup slice
(:func:`warm_hierarchy`, :func:`warm_branch_predictor`), warm the
policy, then time the measured slice.  Like the paper's checkpoint,
the hierarchy and predictor are warmed once per trace, warmup length
and memory geometry (:func:`~repro.memory.hierarchy.memory_geometry`,
the one key of warm snapshots and oracle annotations alike), and each
point runs on a copy: the copy is built under the point's own
``MemParams``, so MSHR counts and latencies stay per point.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import OrderedDict
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.api.exec import (ExecEvent, ExecutorBackend, PoolExecutor,
                            ProgressCallback, WorkerFailure, as_executor)
from repro.api.result import (SOURCE_DISK, SOURCE_MEMORY, SOURCE_SIMULATED,
                              SOURCE_STORE, SimResult, cached_result)
from repro.api.spec import SweepSpec
from repro.core.branch import GsharePredictor
from repro.core.params import CoreParams, cap
from repro.core.pipeline import CODE_BASE, INST_BYTES, Pipeline
from repro.harness.cachefile import ResultCache
from repro.harness.config import DEFAULT_ENGINE, SimConfig
from repro.isa.trace import DynInst
from repro.ltp.oracle import OracleInfo, annotate_trace
from repro.memory.hierarchy import (MemoryHierarchy, MemParams,
                                    memory_geometry)
from repro.policies import build_policy, policy_needs_oracle
from repro.workloads import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.store import ResultStore

#: default LRU caps of a session's in-process memoisation (traces per
#: workload; oracle annotations, and warm snapshots, per trace)
TRACE_CACHE_MAX = 8
ORACLE_CACHE_MAX = 16


def warm_hierarchy(hierarchy: MemoryHierarchy, warmup_slice,
                   program_len: int, warm_regions=()) -> None:
    """Functionally warm *hierarchy* on the warmup slice."""
    # Hot metadata a paper-scale warmup (250 M instructions) would leave
    # resident: the kernels re-walk these small arrays with a period far
    # longer than our warmup slice, so install them in the L2/L3 first.
    for base, words in warm_regions:
        hierarchy.install(base, base + words * 8)
    for dyn in warmup_slice:
        if dyn.is_mem:
            hierarchy.functional_access(dyn.addr, is_store=dyn.is_store,
                                        pc=dyn.pc)
    # warm the instruction path: kernels are tiny, touch every block once
    hierarchy.install(CODE_BASE, CODE_BASE + (program_len - 1) * INST_BYTES,
                      code=True)


def warm_branch_predictor(bpred: GsharePredictor, warmup_slice) -> None:
    """Train *bpred* on the warmup slice's branches."""
    for dyn in warmup_slice:
        if dyn.is_branch:
            bpred.predict_and_update(dyn.pc, dyn.taken)


class PreparedWorkload:
    """One workload's trace-cache entry: everything its points share.

    Holds what a point needs of the built workload (category, program
    length, warm regions; not the workload object itself, whose memory
    image runs to 6.1 MiB for ``ptrchase_astar`` and 7.3 MiB over all
    15 workloads), the longest trace generated so
    far (with the longest length ever requested: a trace shorter than
    that means the workload halts there and the trace is complete), the
    kernel engine's columnar predecode of that trace, oracle
    annotations and warmed ``(hierarchy, branch predictor)`` snapshots.
    Annotations are keyed by trace length, ROB window and
    :func:`~repro.memory.hierarchy.memory_geometry`; snapshots by
    warmup length and the same geometry.  Each is made on first use
    and kept LRU-bounded.  Traces are deterministic, so a shorter trace
    is a prefix of a longer one: extending the trace drops the
    predecode but keeps annotations and snapshots.  The entry holds no
    reference cycle: dropping it frees all of it by reference count,
    although :func:`_long_lived` exempted it from the collector.
    """

    __slots__ = ("category", "program_len", "warm_regions", "requested",
                 "trace", "_arrays", "_oracles", "_warmed")

    def __init__(self, workload: Any, length: int) -> None:
        self.trace: List[DynInst] = workload.trace(length)
        self.requested = length
        self.category: str = workload.category
        self.program_len = len(workload.program)
        self.warm_regions = workload.warm_regions
        self._arrays: Any = None
        self._oracles: "OrderedDict[tuple, OracleInfo]" = OrderedDict()
        self._warmed: "OrderedDict[tuple, Tuple[MemoryHierarchy, " \
                      "GsharePredictor]]" = OrderedDict()

    def cover(self, length: int, build: Callable[[], Any]) -> None:
        """Make the trace cover *length* instructions, unless the
        workload halts sooner; *build* rebuilds the workload to
        generate the longer trace."""
        if length <= self.requested:
            return
        if len(self.trace) >= self.requested:  # not known to halt
            self.trace = _long_lived(build().trace(length))
            self._arrays = None
        self.requested = length

    def head(self, length: int) -> List[DynInst]:
        """The first *length* instructions (the shared list itself
        when it is no longer)."""
        trace = self.trace
        return trace if len(trace) <= length else trace[:length]

    def arrays(self, length: int) -> Any:
        """Columnar predecode (:class:`~repro.core.kernel.TraceArrays`)
        of the first *length* instructions: a window over one predecode
        of the whole trace."""
        from repro.core.kernel import predecode
        if self._arrays is None:
            self._arrays = _long_lived(predecode(self.trace))
        arrays = self._arrays
        return arrays if arrays.n <= length else arrays.window(0, length)

    def oracle(self, length: int, core: CoreParams,
               limit: int) -> OracleInfo:
        """Oracle annotation of the first *length* instructions under
        *core*'s memory geometry and ROB window (at most *limit*
        annotations are kept, least recently used dropped first)."""
        window = min(cap(core.rob_size), 4096)
        return _lru(self._oracles,
                    (length, memory_geometry(core.mem), window), limit,
                    lambda: annotate_trace(self.head(length), core.mem,
                                           window=window,
                                           warm_regions=self.warm_regions))

    def warmed(self, warmup: int, mem: MemParams,
               limit: int) -> Tuple[MemoryHierarchy, GsharePredictor]:
        """A memory hierarchy under *mem* and a branch predictor, both
        functionally warmed on the first *warmup* instructions.

        One snapshot pair per warmup length and memory geometry is
        warmed and never run (at most *limit* are kept, least recently
        used dropped first); every call returns fresh copies of it.
        """
        def warm() -> Tuple[MemoryHierarchy, GsharePredictor]:
            warmup_slice = self.head(warmup)
            hierarchy = MemoryHierarchy(mem)
            warm_hierarchy(hierarchy, warmup_slice, self.program_len,
                           warm_regions=self.warm_regions)
            bpred = GsharePredictor()
            warm_branch_predictor(bpred, warmup_slice)
            return hierarchy, bpred

        hierarchy, bpred = _lru(self._warmed,
                                (warmup, memory_geometry(mem)), limit, warm)
        return hierarchy.functional_copy(mem), bpred.copy()


def _long_lived(value: Any) -> Any:
    """*value*, just prepared for many points, after ``gc.freeze()``
    moved everything alive (*value* too) out of the collector's full
    passes.  Frozen objects still die by reference count; one that
    later dies in a cycle leaks, which freezing once per prepared
    value, not per point, keeps rare."""
    gc.freeze()
    return value


def _lru(cache: "OrderedDict[tuple, Any]", key: tuple, limit: int,
         make: Callable[[], Any]) -> Any:
    """``cache[key]``, made by *make* on a miss; keeps the *limit* most
    recently used entries."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = _long_lived(make())
    cache.move_to_end(key)
    while len(cache) > limit:
        cache.popitem(last=False)
    return value


class Session:
    """Owns simulation caches and executes configurations.

    Parameters
    ----------
    cache_dir:
        Directory for the disk result cache.  ``None`` falls back to
        ``REPRO_CACHE_DIR`` or the repo-root ``.simcache``.
    backend:
        Default :class:`~repro.api.exec.ExecutorBackend` for
        :meth:`run_many` / :meth:`sweep` (``PoolExecutor(jobs=1)``,
        in-process, when omitted).  A string names one: ``"serial"`` or
        ``"process-pool"`` (:func:`repro.api.exec.as_executor`).

    The trace cache holds at most :data:`TRACE_CACHE_MAX` workloads,
    and each keeps at most :data:`ORACLE_CACHE_MAX` oracle annotations
    and as many warm snapshots (both read when used).  A batched drive
    also drops each entry after its workload's last batch (:meth:`release`).
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 backend: Optional[ExecutorBackend] = None) -> None:
        self.results = ResultCache(cache_dir)
        self.backend: ExecutorBackend = (
            PoolExecutor(jobs=1) if backend is None
            else as_executor(backend))
        #: workload name -> its prepared inputs (LRU, bounded)
        self._trace_cache: "OrderedDict[str, PreparedWorkload]" = \
            OrderedDict()

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path:
        """Directory of the disk result cache."""
        return self.results.directory

    def clear_memory_caches(self) -> None:
        """Drop the in-process trace and result memoisation.

        The caches are cleared in place (never rebound) so references
        handed out earlier keep observing this session's state.
        """
        self._trace_cache.clear()
        self.results._memory.clear()

    def close(self) -> None:
        """Release in-memory state (the disk cache persists)."""
        self.clear_memory_caches()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(cache_dir={str(self.cache_dir)!r}, "
                f"backend={self.backend!r})")

    # ------------------------------------------------------------------
    # memoised inputs
    # ------------------------------------------------------------------
    def get_trace(self, workload_name: str, length: int) -> List[DynInst]:
        """Build (and memoise) the first *length* instructions.

        The workload's :class:`PreparedWorkload` entry is created on
        first use (one workload build, one trace generation) and
        becomes the most recently used.  Only the longest trace per
        workload is retained; shorter requests return a slice of it,
        so distinct sweep lengths never pile up duplicate copies in
        memory.
        """
        trace_cache = self._trace_cache
        prepared = trace_cache.get(workload_name)
        if prepared is None:
            prepared = _long_lived(
                PreparedWorkload(get_workload(workload_name), length))
            trace_cache[workload_name] = prepared
        else:
            prepared.cover(length, functools.partial(get_workload,
                                                     workload_name))
        trace_cache.move_to_end(workload_name)
        while len(trace_cache) > TRACE_CACHE_MAX:
            trace_cache.popitem(last=False)
        return prepared.head(length)

    def _prepared(self, workload_name: str,
                  length: int) -> PreparedWorkload:
        """The workload's trace-cache entry, covering *length*
        (:meth:`get_trace` is the one place entries are made, extended
        and evicted)."""
        self.get_trace(workload_name, length)
        return self._trace_cache[workload_name]

    def release(self, workload_name: str) -> None:
        """Drop the workload's trace-cache entry, if any: a batched
        drive calls this once no batch it has left uses the workload."""
        self._trace_cache.pop(workload_name, None)

    def get_trace_arrays(self, workload_name: str, length: int) -> Any:
        """Columnar predecode of the first *length* instructions.

        The kernel engine's :class:`~repro.core.kernel.TraceArrays`,
        kept on the workload's trace-cache entry: one predecode covers
        the longest trace, and shorter requests get a window over it.
        """
        return self._prepared(workload_name, length).arrays(length)

    def get_oracle(self, workload_name: str, length: int,
                   core: CoreParams) -> OracleInfo:
        """Oracle annotation of the first *length* instructions under
        *core* (kept on the workload's trace-cache entry)."""
        return self._prepared(workload_name, length).oracle(
            length, core, ORACLE_CACHE_MAX)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, config: SimConfig, use_cache: bool = True) -> SimResult:
        """Run one configuration in-process; return a typed result."""
        config.validate()
        key = config.key()
        if use_cache:
            cached = self._cached(config, key)
            if cached is not None:
                return cached
        result = self._run(config, key)
        if use_cache:
            self.results.put(key, result.stats)
        return result

    def _run(self, config: SimConfig, key: str) -> SimResult:
        """Simulate a validated *config* (cache *key*); the result cache
        is not used."""
        start = time.perf_counter()
        stats = self._execute(config)
        return SimResult(config=config, stats=stats, key=key,
                         source=SOURCE_SIMULATED,
                         wall_time_s=time.perf_counter() - start)

    def _cached(self, config: SimConfig, key: str) -> Optional[SimResult]:
        """The result cache's entry for *key* as a result, if any."""
        hit = self.results.lookup(key)
        if hit is None:
            return None
        stats, where = hit
        source = SOURCE_MEMORY if where == "memory" else SOURCE_DISK
        return cached_result(config, key, stats, source, backend="cache")

    def batch_runner(self, workload: str, length: int) -> "BatchRunner":
        """A :class:`BatchRunner` for one trace identity.

        Executors hand every point of a ``(workload, warmup+measure)``
        batch to the returned runner, which simulates it and rejects
        configs outside the batch; the trace cache prepares the
        batch's shared inputs once.
        """
        return BatchRunner(self, workload, length)

    def _drive(self, backend: Any, config_list: List[SimConfig],
               use_cache: bool = True,
               store: Optional["ResultStore"] = None,
               progress: Optional[ProgressCallback] = None,
               inspect: Any = None,
               ) -> List[SimResult]:
        """Resolve cache/store hits and run the rest on an executor.

        *backend* is an executor, an executor name or ``None`` (the
        session's own).  Configurations become ``(index, config,
        key)`` items in list order, each key hashed here, so a point
        is hashed once.  This is the only reader and writer of the
        result cache for batched work: executors only simulate.
        Cached configurations are resolved in-process; each distinct
        remaining configuration is run exactly once (duplicates share
        the primary's result object, so provenance — one simulation —
        stays truthful).  Completed outcomes land in the result cache
        (with *use_cache*) and *store*, if given, as they arrive, then
        a failure raises the first :class:`WorkerFailure`.  An
        exception anywhere (a callback, the store, an interrupt)
        closes the executor's ``run()`` generator, which shuts its
        workers down; everything that landed first is preserved, which
        is what makes an interrupted sweep resumable.

        An inspector (*inspect*, resolved by
        :func:`~repro.api.inspect.as_inspector`) watches the drive: it
        receives every lifecycle event after *progress* (operational
        alarms) and every landed result — store and cache hits
        included, which seeds its baselines from history — passes
        through :meth:`~repro.api.inspect.SweepInspector.observe`.
        Keys the store holds quarantined are treated as
        not-yet-simulated: their store rows are not served, and cache
        lookups are bypassed for them, so the re-run regenerates the
        data instead of replaying a poisoned cache entry, and
        overwrites that entry.
        """
        from repro.api.inspect import as_inspector
        executor = as_executor(self.backend if backend is None
                               else backend)
        inspect = as_inspector(inspect, store)
        listeners = [listener for listener in (progress, inspect)
                     if listener is not None]
        emit: Optional[ProgressCallback] = None
        if listeners:
            def emit(event: ExecEvent) -> None:
                for listener in listeners:
                    listener(event)
        # validate everything first: a bad config fails the call before
        # anything reaches the store or the executor
        for config in config_list:
            config.validate()
        if inspect is not None and progress is not None:
            inspect.add_sink(progress)
        try:
            results: Dict[int, SimResult] = {}
            primary: Dict[str, int] = {}  # key -> index that simulates it
            duplicates: List[Tuple[int, str]] = []
            items: List[Tuple[int, SimConfig, str]] = []
            for index, config in enumerate(config_list):
                key = config.key()
                quarantined = store is not None and store.quarantined(key)
                stored = (store.get(key)
                          if store is not None and not quarantined
                          else None)
                if stored is not None:
                    results[index] = SimResult(
                        config=config, stats=stored.stats, key=key,
                        source=SOURCE_STORE, wall_time_s=0.0,
                        backend="store")
                    if inspect is not None:
                        inspect.observe(results[index], index)
                    continue
                cached = (self._cached(config, key)
                          if use_cache and not quarantined else None)
                if cached is not None:
                    results[index] = cached
                    if store is not None:
                        store.add(results[index])
                    if inspect is not None:
                        inspect.observe(results[index], index)
                elif key in primary:  # simulate each distinct config once
                    duplicates.append((index, key))
                else:
                    primary[key] = index
                    items.append((index, config, key))

            failure: Optional[WorkerFailure] = None
            with contextlib.closing(
                    executor.run(self, items, emit)) as outcomes:
                for outcome in outcomes:
                    if isinstance(outcome, WorkerFailure):
                        if failure is None:
                            failure = outcome
                        continue
                    index = primary[outcome.key]
                    results[index] = outcome
                    if use_cache:
                        self.results.put(outcome.key, outcome.stats)
                    if store is not None:
                        # persist as each point lands, so an interrupted
                        # sweep keeps everything it finished
                        store.add(outcome)
                    if inspect is not None:
                        # after store.add: a verdict annotation must
                        # follow the result row it judges in the store
                        # timeline
                        inspect.observe(outcome, index)

            for index, key in duplicates:
                if primary[key] in results:
                    results[index] = results[primary[key]]
            if failure is not None:
                raise failure
            return [results[index] for index in range(len(config_list))]
        finally:
            if inspect is not None and progress is not None:
                inspect.remove_sink(progress)

    def run_many(self, configs: Iterable[SimConfig],
                 use_cache: bool = True,
                 backend: Optional[ExecutorBackend] = None,
                 store: Optional["ResultStore"] = None,
                 progress: Optional[ProgressCallback] = None,
                 inspect: Any = None,
                 ) -> List[SimResult]:
        """Run independent configurations through an execution backend.

        Results come back in the order of *configs* (deterministic
        aggregation regardless of backend scheduling).  Cached
        configurations are resolved in-process; each distinct remaining
        configuration is simulated exactly once (by the executor, which
        never touches the result cache) and duplicates share the
        primary's statistics.  With *use_cache*, every simulated point
        is written to the result cache as it lands.  *backend* may be an
        :class:`~repro.api.exec.ExecutorBackend` or an executor name
        (``"serial"`` or ``"process-pool"``); *progress* receives every
        :class:`~repro.api.exec.ExecEvent`.

        With a :class:`~repro.api.store.ResultStore`, points whose keys
        the store already holds are served from it (``source ==
        "store"``) without simulating, and every other outcome is
        appended to the store as it lands — an interrupted batch keeps
        all completed points, so re-running resumes where it stopped.

        *inspect* turns on online QA: ``True`` builds a
        :class:`~repro.api.inspect.SweepInspector` bound to *store*,
        or pass a configured inspector.  Every landed result is
        validated as it arrives, confirmed anomalies become store
        annotations, and keys the store holds quarantined are
        re-simulated instead of served (from the store or the result
        cache, whose entry the fresh stats replace).
        """
        return self._drive(backend, list(configs),
                           use_cache=use_cache, store=store,
                           progress=progress, inspect=inspect)

    def sweep(self, spec: SweepSpec, use_cache: bool = True,
              backend: Optional[ExecutorBackend] = None,
              store: Optional["ResultStore"] = None,
              shard: Optional[Tuple[int, int]] = None,
              progress: Optional[ProgressCallback] = None,
              inspect: Any = None,
              ) -> List[SimResult]:
        """Expand a :class:`~repro.api.spec.SweepSpec` and run it.

        ``shard=(index, count)`` restricts execution to the spec's
        *index*-th key-stable partition
        (:meth:`~repro.api.spec.SweepSpec.shard`), so independent
        workers cover a sweep exactly once.  Results come back in
        expansion order.

        A ``store`` makes the run durable and resumable: stored points
        are skipped, fresh points are appended as they complete, and
        the store is bound to the spec's
        :meth:`~repro.api.spec.SweepSpec.sweep_id` so resuming with a
        different spec fails fast.  Keys the store holds *quarantined*
        (an inspector's annotation rows) count as not-yet-simulated: a
        resumed sweep re-runs exactly them, and the fresh rows lift the
        quarantine.  *inspect* enables the online QA itself (see
        :meth:`run_many`).
        """
        configs = spec.expand() if shard is None else spec.shard(*shard)
        if store is not None:
            # bind before running so a wrong spec fails fast, and
            # materialise the file so even an empty shard leaves a
            # mergeable artifact
            store.bind(spec.sweep_id()).touch()
        return self._drive(backend, configs,
                           use_cache=use_cache, store=store,
                           progress=progress, inspect=inspect)

    # ------------------------------------------------------------------
    # the simulation itself
    # ------------------------------------------------------------------
    def build_pipeline(self, config: SimConfig) -> Pipeline:
        """A warmed timing pipeline for *config*, ready to ``run()``.

        The one prepare-and-run recipe every simulated point follows:
        take the workload's trace-cache entry (trace, workload metadata,
        oracle annotation iff the policy needs one and, for the kernel
        engine, the columnar predecode), copy its warmed memory
        hierarchy and branch predictor, warm a fresh policy on the
        warmup slice, and build the configured engine
        (``DEFAULT_ENGINE`` unless the config names one) over the
        measured slice.  Everything shared comes from the entry, so
        points of one trace prepare once; everything mutable is fresh
        per call.
        """
        total = config.warmup + config.measure
        prepared = self._prepared(config.workload, total)
        trace = prepared.head(total)
        oracle = (prepared.oracle(total, config.core, ORACLE_CACHE_MAX)
                  if policy_needs_oracle(config.policy, config.ltp)
                  else None)

        warmup_slice = trace[:config.warmup]
        measured = trace[config.warmup:]

        hierarchy, bpred = prepared.warmed(config.warmup, config.core.mem,
                                           ORACLE_CACHE_MAX)

        policy = build_policy(config.policy, config.ltp,
                              config.core.mem.dram_latency, oracle=oracle,
                              model=config.model)
        if config.warmup:
            policy.warm_from_trace(
                warmup_slice,
                oracle.long_latency[:config.warmup]
                if oracle is not None else None)

        if (config.engine or DEFAULT_ENGINE) == "kernel":
            from repro.core.kernel import KernelPipeline
            return KernelPipeline(
                measured, params=config.core, ltp=config.ltp,
                policy=policy, hierarchy=hierarchy,
                branch_predictor=bpred,
                arrays=prepared.arrays(total).window(config.warmup))
        return Pipeline(measured, params=config.core, ltp=config.ltp,
                        policy=policy, hierarchy=hierarchy,
                        branch_predictor=bpred)

    def _execute(self, config: SimConfig) -> Dict[str, Any]:
        """Simulate *config*; return its statistics dict."""
        stats = self.build_pipeline(config).run().as_dict()
        stats["workload"] = config.workload
        stats["category"] = self._trace_cache[config.workload].category
        return stats


class BatchRunner:
    """Simulation of one trace identity, for executors.

    Created by :meth:`Session.batch_runner` for a batch of
    configurations sharing a workload and a total trace length — the
    grouping rule behind the executor layer's batches
    (:func:`repro.api.exec._batches`).  The sharing itself lives
    in the session's trace cache (one trace generation, one workload
    build and one predecode per trace), so a runner keeps no state: it
    checks that each config belongs to its batch and simulates it.  It
    never reads or writes the result cache (``Session._drive`` does)
    and does not validate (``_drive`` validated every config it
    hands an executor).
    """

    def __init__(self, session: Session, workload: str, length: int):
        if length <= 0:
            raise ValueError("batch trace length must be positive")
        self.session = session
        self.workload = workload
        self.length = length

    def run(self, config: SimConfig,
            key: Optional[str] = None) -> SimResult:
        """Simulate one point of the batch; same stats as
        :meth:`Session.run`.  *key* is the config's key if the caller
        already has it (else it is computed)."""
        total = config.warmup + config.measure
        if config.workload != self.workload or total != self.length:
            raise ValueError(
                f"config {config.workload!r} (trace length {total}) does "
                f"not belong to the {self.workload!r}/{self.length} batch")
        return self.session._run(config, key or config.key())


# ======================================================================
# process-global default session
# ======================================================================
_default_session: Optional[Session] = None


def default_session() -> Session:
    """The process-global session (created on first use)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Session) -> Optional[Session]:
    """Replace the process-global session; returns the previous one."""
    global _default_session
    previous = _default_session
    _default_session = session
    return previous
