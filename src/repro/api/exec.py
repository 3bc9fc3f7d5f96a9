"""Execution: one ``run()`` generator per executor, lifecycle events,
retries.

This module is the execution layer's supported surface:

* :class:`ExecutorBackend` — what every executor implements: one
  method, ``run(session, items, emit=None)``, a generator over the
  ``(index, config, key)`` items ``Session._drive`` built.  It calls
  ``emit`` with each structured :class:`ExecEvent` lifecycle event
  (``submitted``/``started``/``finished``/``failed``/``retried``) and
  yields each point's outcome, a :class:`~repro.api.result.SimResult`
  or a :class:`WorkerFailure`, as it lands.  Failed attempts are
  redispatched up to ``max_retries`` times.
* :class:`PoolExecutor` — the one implementation: ``jobs=1`` runs
  in-process (results labelled ``"serial"``), any other ``jobs`` fans
  the items over worker processes (``"process-pool"``).
  :func:`as_executor` resolves those two labels as ``backend=`` names.

Stateless executors: an executor keeps only its construction options
(``max_retries``, ``batch_size``, ``jobs``).  Everything one call needs
lives in its ``run()`` generator, so an exception anywhere in the
caller (a callback, the store, ``KeyboardInterrupt``) ends the call by
closing the generator, whose ``finally`` shuts a worker pool down.
Nothing is left queued for a later call, and an interrupted sweep
resumes from whatever its store holds.

One dispatch unit: :func:`_batches` splits the items into
trace-homogeneous batches — points sharing one trace identity
(workload + total trace length), capped by ``batch_size`` — and a lone
point is simply a batch of one.  Each dispatch pays one trace
generation, one workload build and one columnar predecode for the
whole group (the session's trace-cache entry is shared by every
point), whether it runs inline through a
:class:`~repro.api.session.BatchRunner` or in a pool worker.  The
entry lives only while the drive has a batch left for its workload:
inline, it is released after the workload's last batch; a pool worker
drops the entries of every workload a chunk names as ``finished``.

Executors only simulate: the result cache is read and written by
``Session._drive`` alone, so every point an executor lands is
``simulated``.

One outcome path: however an executor runs a point, it reports to the
``ExecutorBackend`` helpers ``_submitted``, ``_start``, ``_finish`` and
``_retry_or_fail`` — the only code that counts a point's attempts,
builds its :class:`~repro.api.result.SimResult` or
:class:`WorkerFailure` and emits its lifecycle events.

Event-delivery guarantees: every item emits ``submitted`` once,
``started`` once (its first dispatch), then either ``finished`` or
``failed`` once, with zero or more ``retried`` events in between (one
per redispatch after a worker failure).  ``finished`` is emitted before
the outcome is yielded.  Events are delivered on the thread iterating
``run()``, in a deterministic order for serial execution.  Batching
never changes any of this: points landing from one batch still emit
their lifecycle events per point, exactly once, and a batch that fails
mid-flight retries only its unfinished points.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple, Union)

from repro.api.result import SOURCE_SIMULATED, SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.harness.config import SimConfig

#: a unit of pending work: position in the batch, config and its key
WorkItem = Tuple[int, "SimConfig", str]
#: a worker's report on one point: ``(error, stats, wall seconds)`` —
#: ``error`` is ``None`` on success; a failure carries its error (text,
#: or the raised exception) and no stats
Outcome = Tuple[Any, Optional[Dict[str, Any]], float]
#: what ``run()`` yields for one point
PointOutcome = Union[SimResult, "WorkerFailure"]

#: default cap on trace-shared batch size when no ``batch_size`` is
#: given: large enough to amortize trace generation and predecode,
#: small enough that progress events, retry granularity and work
#: stealing stay responsive
DEFAULT_BATCH_SIZE = 16

# ----------------------------------------------------------------------
# lifecycle events
# ----------------------------------------------------------------------
EVENT_SUBMITTED = "submitted"
EVENT_STARTED = "started"
EVENT_FINISHED = "finished"
EVENT_FAILED = "failed"
EVENT_RETRIED = "retried"
#: synthetic event kind injected by the SweepInspector (not part of
#: the per-point lifecycle): an anomaly confirmed online, carrying
#: ``"check: detail"`` in ``error``
EVENT_ANOMALY = "anomaly"


@dataclass
class ExecEvent:
    """One lifecycle transition of one submitted configuration."""

    kind: str
    key: str
    workload: str
    index: int
    #: 1-based attempt number at the time of the event (0 = not started)
    attempt: int = 0
    #: result provenance, on ``finished`` events
    source: Optional[str] = None
    wall_time_s: Optional[float] = None
    #: stringified worker error, on ``failed``/``retried`` events
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (``None`` fields omitted)."""
        payload: Dict[str, Any] = {"kind": self.kind, "key": self.key,
                                   "workload": self.workload,
                                   "index": self.index,
                                   "attempt": self.attempt}
        for name in ("source", "wall_time_s", "error"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload


ProgressCallback = Callable[[ExecEvent], None]


class WorkerFailure(RuntimeError):
    """A work item kept failing after its bounded retries."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


class _Point:
    """One item's bookkeeping inside a ``run()`` call."""

    __slots__ = ("index", "config", "key", "attempts")

    def __init__(self, index: int, config: "SimConfig", key: str) -> None:
        self.index = index
        self.config = config
        self.key = key
        #: attempts dispatched so far (grows on retries)
        self.attempts = 0


def _event(kind: str, point: _Point, **extra: Any) -> ExecEvent:
    return ExecEvent(kind=kind, key=point.key,
                     workload=point.config.workload, index=point.index,
                     attempt=point.attempts, **extra)


# ----------------------------------------------------------------------
# trace-shared batches
# ----------------------------------------------------------------------
def _batch_key(config: "SimConfig") -> Tuple[str, int]:
    """The grouping identity for trace-shared batching.

    Points batch together when they share a workload and a total
    trace length (``warmup + measure``) — exactly the inputs one trace
    generation + one predecode can serve.  The engine is deliberately
    *not* part of the key: the trace's one predecode serves every
    kernel member, and object-engine members (the differential
    reference) never touch it.
    """
    return (config.workload, config.warmup + config.measure)


def _batches(points: Sequence[_Point],
             limit: Optional[int]) -> List[List[_Point]]:
    """Split *points* into trace-homogeneous batches, dispatch order.

    Each batch holds points of one :func:`_batch_key` identity, in
    their order, at most *limit* of them (``None`` = no cap).  Batches
    come in the order of their first points, so a batch takes the
    earliest point not yet batched plus the next points sharing its
    identity.  A sweep's expansion is workload-major, so batching a
    sweep never reorders how its points land.
    """
    groups: Dict[Tuple[str, int], List[_Point]] = {}
    for point in points:
        groups.setdefault(_batch_key(point.config), []).append(point)
    size = limit or len(points)
    batches = [group[start:start + size] for group in groups.values()
               for start in range(0, len(group), size)]
    position = {id(point): n for n, point in enumerate(points)}
    batches.sort(key=lambda batch: position[id(batch[0])])
    return batches


# ----------------------------------------------------------------------
# pool worker functions (module-level: picklable for any start method)
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Pool initializer: empty the memory caches of the default session
    a worker forked, so it holds only what its own chunks prepare."""
    from repro.api.session import default_session
    default_session().clear_memory_caches()


def _chunk_worker(items: Sequence[Tuple["SimConfig", str]],
                  finished: Sequence[str] = ()) -> List[Outcome]:
    """Simulate one dispatched batch of ``(config, key)`` items in one
    worker round trip (the parent has hashed every config already).
    *finished* names the workloads no later batch of the drive uses,
    this chunk's own included once it is their last: the worker drops
    their trace-cache entries once the chunk is done.

    Every chunk is a trace-homogeneous batch (one workload, one total
    trace length) or a single-point retry, and runs through a
    :class:`~repro.api.session.BatchRunner` of the worker's default
    session (forked from the parent's and emptied by
    :func:`_worker_init`), which only supplies the trace cache: one
    trace generation, one workload build, one predecode for the whole
    chunk.  The worker touches no result cache; the parent's
    ``Session._drive`` writes it.  Each point comes back as one
    :data:`Outcome`, a failure in-band as its error text, so one bad
    point costs one single-item retry instead of re-failing the whole
    chunk.
    """
    from repro.api.session import default_session
    session, first = default_session(), items[0][0]
    runner = session.batch_runner(first.workload,
                                  first.warmup + first.measure)
    outcomes: List[Outcome] = []
    for config, key in items:
        try:
            result = runner.run(config, key)
        except Exception as exc:  # noqa: BLE001 - reported in-band
            outcomes.append((f"{type(exc).__name__}: {exc}", None, 0.0))
        else:
            outcomes.append((None, result.stats, result.wall_time_s))
    for workload in finished:
        session.release(workload)
    return outcomes


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class ExecutorBackend:
    """Base of every executor.

    Subclasses implement :meth:`run`; the outcome path
    (:meth:`_submitted`, :meth:`_start`, :meth:`_finish`,
    :meth:`_retry_or_fail`, the only code that emits a point's
    lifecycle events or builds its outcome) is shared here.  An
    executor keeps only its construction options, so one instance can
    serve any number of calls, one after another.

    Parameters
    ----------
    max_retries:
        How many times a failing work item is redispatched before its
        :class:`WorkerFailure` is yielded (default 1, so a transient
        worker crash costs one retry).
    batch_size:
        Cap on how many trace-identical points one dispatched batch
        groups (``None`` = executor-specific default; ``1`` disables
        batching entirely).
    """

    #: short identifier recorded in :class:`repro.api.result.SimResult`
    name = "?"

    def __init__(self, max_retries: int = 1,
                 batch_size: Optional[int] = None) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.max_retries = max_retries
        self.batch_size = batch_size

    def run(self, session: "Session", items: Iterable[WorkItem],
            emit: Optional[ProgressCallback] = None
            ) -> Iterator[PointOutcome]:
        """Execute *items* against *session*; yield each point's
        :class:`~repro.api.result.SimResult` or :class:`WorkerFailure`
        as it lands, calling *emit* with every lifecycle event."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- the outcome path ------------------------------------------------
    def _submitted(self, items: Iterable[WorkItem],
                   emit: Optional[ProgressCallback]) -> List[_Point]:
        """One :class:`_Point` per item, each announced ``submitted``."""
        points = [_Point(*item) for item in items]
        if emit is not None:
            for point in points:
                emit(_event(EVENT_SUBMITTED, point))
        return points

    def _start(self, point: _Point,
               emit: Optional[ProgressCallback]) -> None:
        """First dispatch of *point*: attempt 1, ``started``."""
        point.attempts = 1
        if emit is not None:
            emit(_event(EVENT_STARTED, point))

    def _finish(self, point: _Point, stats: Dict[str, Any],
                wall_time_s: float,
                emit: Optional[ProgressCallback]) -> SimResult:
        """*point*'s simulated result, after emitting ``finished``."""
        if emit is not None:
            emit(_event(EVENT_FINISHED, point, source=SOURCE_SIMULATED,
                        wall_time_s=wall_time_s))
        return SimResult(config=point.config, stats=stats, key=point.key,
                         source=SOURCE_SIMULATED, wall_time_s=wall_time_s,
                         backend=self.name)

    def _retry_or_fail(self, point: _Point, error: Any,
                       emit: Optional[ProgressCallback]
                       ) -> Optional[WorkerFailure]:
        """One failed attempt of *point*; ``None`` = redispatch it.

        Within ``max_retries``, emit ``retried`` for the attempt that
        failed and count the next one.  Otherwise emit ``failed`` and
        return a :class:`WorkerFailure`, chained to *error* when that
        is a real exception.
        """
        if point.attempts <= self.max_retries:
            if emit is not None:
                emit(_event(EVENT_RETRIED, point, error=str(error)))
            point.attempts += 1
            return None
        failure = WorkerFailure(
            f"{point.config.workload} ({point.key}) failed after "
            f"{point.attempts} attempt(s): {error}",
            attempts=point.attempts)
        if isinstance(error, BaseException):
            failure.__cause__ = error
        if emit is not None:
            emit(_event(EVENT_FAILED, point, error=str(error)))
        return failure

    def _run_inline(self, session: "Session", points: List[_Point],
                    emit: Optional[ProgressCallback],
                    limit: Optional[int]) -> Iterator[PointOutcome]:
        """Run *points* in-process, batched, in item order (the
        ``jobs=1`` path and the pool's small-run degradation).

        Every batch — a batch of one included — runs through one
        :class:`~repro.api.session.BatchRunner`, so the session's
        trace cache generates (and, for kernel points, predecodes) the
        trace once per batch; each point still starts, finishes,
        retries and lands individually.  *limit* caps the batch size.
        """
        batches = _batches(points, limit)
        last = {batch[0].config.workload: batch for batch in batches}
        for batch in batches:
            runner = session.batch_runner(*_batch_key(batch[0].config))
            for point in batch:
                self._start(point, emit)
                outcome = None
                while outcome is None:  # None = retry
                    try:
                        result = runner.run(point.config, point.key)
                    except Exception as exc:  # noqa: BLE001 - retried
                        outcome = self._retry_or_fail(point, exc, emit)
                    else:
                        outcome = self._finish(point, result.stats,
                                               result.wall_time_s, emit)
                yield outcome
            if last[runner.workload] is batch:
                session.release(runner.workload)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def default_jobs() -> int:
    """Worker count: the ``REPRO_JOBS`` env var, else the CPU count.

    ``REPRO_JOBS`` means what ``jobs`` does: ``0`` is one worker per
    CPU, and a negative or non-integer value raises ``ValueError``.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
        if jobs < 0:
            raise ValueError(f"REPRO_JOBS must be >= 0, got {env!r}")
        if jobs:
            return jobs
    return os.cpu_count() or 1


class PoolExecutor(ExecutorBackend):
    """Run items in-process (``jobs=1``) or over a pool of worker
    processes (any other ``jobs``).

    ``jobs=1`` runs every item in-process, in item order, through
    :meth:`ExecutorBackend._run_inline`: trace-identical items batch
    through one :class:`~repro.api.session.BatchRunner` without bound
    unless ``batch_size`` caps them (``1`` restores strictly unbatched
    execution), and results are labelled ``"serial"``.  Results,
    lifecycle events and completion order are identical whatever the
    cap: a sweep's expansion is workload-major, so its batches are
    exactly the already-adjacent runs of points.

    Any other ``jobs`` labels results ``"process-pool"``.
    ``jobs=None`` (or ``0``) uses :func:`default_jobs`
    (``REPRO_JOBS`` env var, else the CPU count).  Runs that would not
    benefit from a pool (one item, or one worker) degrade to
    in-process execution.  The unit of worker dispatch is the batch:
    trace-identical points travel together (capped by ``batch_size``),
    and the worker runs the whole group through one
    :class:`~repro.api.session.BatchRunner` — one trace generation,
    one predecode per dispatch.  Per-point failures come back in-band
    and are redispatched singly with per-point ``attempts``, so one
    bad point cannot re-fail a whole batch.  Workers run on their
    forked default session, emptied as each worker starts, which
    supplies only the trace cache: they never touch a result-cache
    directory.

    The pool is a ``concurrent.futures.ProcessPoolExecutor`` (``fork``
    workers where the platform has them), made per ``run()`` call and
    shut down when the call's generator ends or is closed.  A worker
    that dies outright (SIGKILL, OOM) breaks the pool, which fails
    everything it held with ``BrokenProcessPool``; the drive loop then
    builds a fresh pool and sends each point that was in flight
    through the retry path, so a dead worker costs every such point
    one attempt.
    """

    #: in-flight chunks kept per worker: enough to keep workers busy,
    #: few enough that an interrupted run has little left to wait for
    BACKLOG_PER_WORKER = 2

    def __init__(self, jobs: Optional[int] = None,
                 max_retries: int = 1,
                 batch_size: Optional[int] = None) -> None:
        super().__init__(max_retries=max_retries, batch_size=batch_size)
        if jobs is not None and jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs or None  # 0 = one worker per CPU, as None

    @property
    def name(self) -> str:
        return "serial" if self.jobs == 1 else "process-pool"

    def _resolved_jobs(self) -> int:
        return self.jobs or default_jobs()

    def _resolved_batch_size(self, items: int, workers: int) -> int:
        """The cap on one dispatched batch.

        An explicit ``batch_size`` wins; otherwise batches grow to
        :data:`DEFAULT_BATCH_SIZE` (bounded by a fair per-worker share
        of the items).
        """
        if self.batch_size is not None:
            return max(1, self.batch_size)
        return max(1, min(DEFAULT_BATCH_SIZE, items // max(1, workers)))

    def run(self, session: "Session", items: Iterable[WorkItem],
            emit: Optional[ProgressCallback] = None
            ) -> Iterator[PointOutcome]:
        points = self._submitted(items, emit)
        jobs = self._resolved_jobs()
        if jobs <= 1 or len(points) <= 1:
            limit = (self.batch_size if self.jobs == 1 else
                     self._resolved_batch_size(len(points), 1))
            yield from self._run_inline(session, points, emit, limit)
        else:
            yield from self._run_pool(points, jobs, emit)

    def _run_pool(self, points: List[_Point], jobs: int,
                  emit: Optional[ProgressCallback]
                  ) -> Iterator[PointOutcome]:
        import multiprocessing
        from concurrent.futures import (FIRST_COMPLETED, Future,
                                        ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        workers = min(jobs, len(points))
        workloads = {point.config.workload for point in points}
        pending = deque(_batches(
            points, self._resolved_batch_size(len(points), workers)))
        max_inflight = workers * self.BACKLOG_PER_WORKER

        def new_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                       initializer=_worker_init)

        #: pool future -> the points it runs
        inflight: "Dict[Future, List[_Point]]" = {}
        pool = new_pool()

        def dispatch(batch: List[_Point]) -> None:
            worker = _chunk_worker  # module global: monkeypatchable
            finished = sorted(workloads - {later[0].config.workload
                                           for later in pending})
            try:
                handle = pool.submit(worker,
                                     [(p.config, p.key) for p in batch],
                                     finished)
            except BrokenProcessPool as exc:
                # a worker died before any future reported it: this
                # batch fails with the pool, like the ones in flight
                handle = Future()
                handle.set_exception(exc)
            inflight[handle] = batch

        def fill_window() -> None:
            while len(inflight) < max_inflight and pending:
                batch = pending.popleft()
                for point in batch:
                    self._start(point, emit)
                dispatch(batch)

        def land(handle: Future, retries: List[_Point],
                 landed: List[PointOutcome]) -> bool:
            """Take one finished pool future's outcomes; ``True`` =
            the pool broke."""
            batch = inflight.pop(handle)
            # still pending after its broken pool shut down: it was
            # submitted as the pool broke, and failed with it
            crash = (handle.exception() if handle.done() else
                     BrokenProcessPool("a worker terminated abruptly"))
            if crash is None:
                outcomes = handle.result()
            else:
                # a crashed chunk, or a pool whose worker died: every
                # point of the batch failed this attempt
                outcomes = [(crash, None, 0.0)] * len(batch)
            for point, (error, stats, wall) in zip(batch, outcomes):
                if error is None:
                    landed.append(self._finish(point, stats, wall, emit))
                    continue
                failure = self._retry_or_fail(point, error, emit)
                if failure is None:
                    retries.append(point)  # retries singly
                else:
                    landed.append(failure)
            return isinstance(crash, BrokenProcessPool)

        try:
            fill_window()
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                retries: List[_Point] = []
                landed: List[PointOutcome] = []
                broken = False
                for handle in done:
                    broken = land(handle, retries, landed) or broken
                if broken:
                    # the broken pool has failed (or will fail) all it
                    # held; once it is shut down, land the rest too
                    pool.shutdown(wait=True)
                    for handle in list(inflight):
                        land(handle, retries, landed)
                    pool = new_pool()
                for point in retries:
                    dispatch([point])
                fill_window()
                yield from landed
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return (f"PoolExecutor(jobs={self.jobs!r}, "
                f"batch_size={self.batch_size!r})")


def as_executor(backend: Any) -> ExecutorBackend:
    """Normalise a ``backend=`` argument to an executor.

    A string names one: ``"serial"`` is ``PoolExecutor(jobs=1)``,
    ``"process-pool"`` is one worker per CPU; any other string raises
    ``ValueError``.  Executors pass through; anything else raises
    ``TypeError``.
    """
    if isinstance(backend, str):
        if backend not in ("serial", "process-pool"):
            raise ValueError(f"unknown executor {backend!r} (choose "
                             f"from: serial, process-pool)")
        backend = PoolExecutor(jobs=1 if backend == "serial" else None)
    if isinstance(backend, ExecutorBackend):
        return backend
    raise TypeError(
        f"{backend!r} is not an execution backend (subclass "
        f"repro.api.exec.ExecutorBackend and implement run())")
