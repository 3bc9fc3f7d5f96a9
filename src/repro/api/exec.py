"""Futures-based execution: submission, lifecycle events, coordination.

This module is the execution layer's supported surface.  Where the
original :class:`~repro.api.backends.ExecutionBackend` protocol was a
blocking batch iterator (``execute(session, items) -> outcomes``), the
submission protocol decomposes execution into observable, controllable
pieces:

* :class:`SimFuture` — one submitted configuration's pending outcome:
  ``result()`` / ``exception()`` / ``cancel()`` / ``done()``, carrying
  provenance (config, cache key, batch index, shard tag, attempts).
* :class:`ExecutorBackend` — the submission surface every executor
  implements: ``submit(item) -> SimFuture`` plus ``as_completed()``,
  progress callbacks receiving structured :class:`ExecEvent` lifecycle
  events (``submitted``/``started``/``finished``/``failed``/
  ``retried``/``cancelled``, each delivered exactly once per
  transition), bounded retry on worker failure, and graceful
  cancellation (``cancel_all`` stops dispatching but drains whatever
  is already in flight).
* :class:`SerialExecutor` / :class:`PoolExecutor` — the in-process and
  ``multiprocessing`` implementations.  Both dispatch
  :class:`BatchWorkItem`\\ s: queued futures sharing one trace
  identity (workload + total trace length + cache policy + shard) are
  grouped so each dispatch pays one trace generation, one workload
  build and one columnar predecode for the whole group (the session's
  trace-cache entry is shared by every point).  ``batch_size``
  caps the group; the pool's legacy ``chunksize`` acts as that cap
  when no ``batch_size`` is given, so tuned call sites keep their
  dispatch granularity.
* :class:`LegacyBackendAdapter` — wraps an iterator-style backend so
  pre-submission backends keep working (with a ``DeprecationWarning``).
* :class:`CoordinatorBackend` — expands a
  :class:`~repro.api.spec.SweepSpec`, partitions it with
  :meth:`~repro.api.spec.SweepSpec.shard`'s key-stable rule, and
  drives *all* shards
  from one process over a worker pool, streaming every landed outcome
  into a bound :class:`~repro.api.store.ResultStore` — the
  ``repro sweep --coordinate`` engine that replaces *k* separate CLI
  invocations.

Event-delivery guarantees: every submitted item emits ``submitted``
once, ``started`` once (its first dispatch), then either ``finished``
or ``failed`` once, with zero or more ``retried`` events in between
(one per redispatch after a worker failure); an item cancelled before
it starts emits ``cancelled`` instead.  Events are delivered on the
thread iterating ``as_completed()``, in a deterministic order for
serial execution.  Batching never changes any of this: points landing
from one batch still emit their lifecycle events per point, exactly
once, and a batch that fails mid-flight retries only its unfinished
points.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator,
                    List, Optional, Sequence, Tuple)

from repro.api.executors import register_executor
from repro.api.result import SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.api.spec import SweepSpec
    from repro.api.store import ResultStore
    from repro.harness.config import SimConfig

#: a unit of pending work: position in the batch, config, cache policy
WorkItem = Tuple[int, "SimConfig", bool]
#: a completed unit: position, stats dict, wall seconds, result source
Outcome = Tuple[int, Dict[str, Any], float, str]

#: default cap on trace-shared batch size when neither ``batch_size``
#: nor a legacy ``chunksize`` is given: large enough to amortize trace
#: generation and predecode, small enough that progress events, retry
#: granularity and work stealing stay responsive
DEFAULT_BATCH_SIZE = 16

# ----------------------------------------------------------------------
# lifecycle events
# ----------------------------------------------------------------------
EVENT_SUBMITTED = "submitted"
EVENT_STARTED = "started"
EVENT_FINISHED = "finished"
EVENT_FAILED = "failed"
EVENT_RETRIED = "retried"
EVENT_CANCELLED = "cancelled"
EVENT_KINDS = (EVENT_SUBMITTED, EVENT_STARTED, EVENT_FINISHED,
               EVENT_FAILED, EVENT_RETRIED, EVENT_CANCELLED)
#: synthetic event kind injected by the SweepInspector (not part of
#: the per-future lifecycle, so not in EVENT_KINDS): an anomaly
#: confirmed online, carrying ``"check: detail"`` in ``error``
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
    #: coordinator shard tag, when the submission was shard-partitioned
    shard: Optional[int] = None
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
        for name in ("shard", "source", "wall_time_s", "error"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload


ProgressCallback = Callable[[ExecEvent], None]


class ExecutionCancelled(RuntimeError):
    """A batch ended with cancelled work still unexecuted.

    ``completed`` maps batch index -> :class:`SimResult` for every
    point that landed before (or while) the cancellation drained, so a
    caller can aggregate partial results; everything already appended
    to a bound :class:`~repro.api.store.ResultStore` stays there, which
    is what makes a cancelled sweep resumable.
    """

    def __init__(self, message: str,
                 completed: Optional[Dict[int, SimResult]] = None) -> None:
        super().__init__(message)
        self.completed: Dict[int, SimResult] = completed or {}


class WorkerFailure(RuntimeError):
    """A work item kept failing after its bounded retries."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


# ----------------------------------------------------------------------
# futures
# ----------------------------------------------------------------------
_PENDING = "pending"
_RUNNING = "running"
_CANCELLED = "cancelled"
_DONE = "done"


class SimFuture:
    """The pending outcome of one submitted configuration.

    Created by :meth:`ExecutorBackend.submit`; resolved by the
    executor's ``as_completed`` drive.  Thread-safe: the pool executor
    resolves futures from its completion loop while callers may wait
    in :meth:`result` from another thread.
    """

    def __init__(self, executor: "ExecutorBackend", item: WorkItem,
                 shard: Optional[int] = None) -> None:
        self.index, self.config, self.use_cache = item
        #: the configuration's stable cache key (provenance)
        self.key = self.config.key()
        #: coordinator shard tag (``None`` outside coordinated runs)
        self.shard = shard
        #: attempts dispatched so far (grows on retries)
        self.attempts = 0
        self._executor = executor
        self._state = _PENDING
        self._result: Optional[SimResult] = None
        self._exception: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._callbacks: List[Callable[["SimFuture"], None]] = []

    # -- state queries ---------------------------------------------------
    def done(self) -> bool:
        """True once resolved: result, exception, or cancelled."""
        with self._cond:
            return self._state in (_DONE, _CANCELLED)

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == _CANCELLED

    def running(self) -> bool:
        with self._cond:
            return self._state == _RUNNING

    # -- cancellation ----------------------------------------------------
    def cancel(self) -> bool:
        """Cancel if not yet started; running work is never interrupted.

        Returns ``True`` when the future is (now) cancelled.  The
        executor emits the ``cancelled`` lifecycle event.
        """
        with self._cond:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
            self._cond.notify_all()
        self._executor._on_future_cancelled(self)
        self._invoke_callbacks()
        return True

    def _cancel_running(self) -> None:
        """Force-cancel in-flight work whose outcome will never arrive
        (the legacy adapter's torn-iterator path)."""
        with self._cond:
            if self._state in (_DONE, _CANCELLED):
                return
            self._state = _CANCELLED
            self._cond.notify_all()
        self._executor._on_future_cancelled(self)
        self._invoke_callbacks()

    # -- waiting ---------------------------------------------------------
    def _wait(self, timeout: Optional[float]) -> None:
        if not self._cond.wait_for(
                lambda: self._state in (_DONE, _CANCELLED),
                timeout=timeout):
            raise TimeoutError(f"future for {self.key} still "
                               f"{self._state} after {timeout}s")

    def result(self, timeout: Optional[float] = None) -> SimResult:
        """The :class:`SimResult`; raises the failure or cancellation."""
        with self._cond:
            self._wait(timeout)
            if self._state == _CANCELLED:
                raise ExecutionCancelled(
                    f"simulation of {self.key} was cancelled")
            if self._exception is not None:
                raise self._exception
            assert self._result is not None
            return self._result

    def exception(self,
                  timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """The failure that resolved this future, or ``None``."""
        with self._cond:
            self._wait(timeout)
            if self._state == _CANCELLED:
                return ExecutionCancelled(
                    f"simulation of {self.key} was cancelled")
            return self._exception

    def add_done_callback(self,
                          fn: Callable[["SimFuture"], None]) -> None:
        """Run *fn(future)* once resolved (immediately if already)."""
        with self._cond:
            if self._state not in (_DONE, _CANCELLED):
                self._callbacks.append(fn)
                return
        fn(self)

    # -- resolution (executor-internal) ----------------------------------
    def _set_running(self) -> None:
        with self._cond:
            if self._state == _PENDING:
                self._state = _RUNNING

    def _set_result(self, result: SimResult) -> None:
        with self._cond:
            self._result = result
            self._state = _DONE
            self._cond.notify_all()
        self._invoke_callbacks()

    def _set_exception(self, exc: BaseException) -> None:
        with self._cond:
            self._exception = exc
            self._state = _DONE
            self._cond.notify_all()
        self._invoke_callbacks()

    def _invoke_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        return (f"SimFuture({self.config.workload!r}, key={self.key!r}, "
                f"state={self._state!r})")


# ----------------------------------------------------------------------
# trace-shared batches
# ----------------------------------------------------------------------
def _batch_key(future: SimFuture) -> Tuple[Optional[int], str, int, bool]:
    """The grouping identity for trace-shared batching.

    Futures batch together when they share a coordinator shard, a
    workload, a total trace length (``warmup + measure``) and a cache
    policy — exactly the inputs one trace generation + one predecode
    can serve.  The engine is deliberately *not* part of the key: the
    predecode is done lazily, only when a batch member actually uses
    the kernel engine.
    """
    config = future.config
    return (future.shard, config.workload,
            config.warmup + config.measure, future.use_cache)


@dataclass
class BatchWorkItem:
    """A trace-homogeneous slice of the queue, dispatched as one unit.

    Every member future shares the :func:`_batch_key` identity (a
    cancelled future travels alone), so an executor can run the whole
    group through one :class:`~repro.api.session.BatchRunner` — or one
    ``run_batch`` protocol frame — while still resolving each member
    per point.
    """

    futures: List[SimFuture]

    def __len__(self) -> int:
        return len(self.futures)

    @property
    def workload(self) -> str:
        return self.futures[0].config.workload

    @property
    def length(self) -> int:
        config = self.futures[0].config
        return config.warmup + config.measure

    @property
    def use_cache(self) -> bool:
        return self.futures[0].use_cache

    @property
    def shard(self) -> Optional[int]:
        return self.futures[0].shard


# ----------------------------------------------------------------------
# pool worker functions (module-level: picklable for any start method)
# ----------------------------------------------------------------------
#: per-process sessions for pool workers driving a non-default cache dir
_worker_sessions: Dict[str, "Session"] = {}


def _worker_session(cache_dir: str) -> "Session":
    """The session a pool worker runs against.

    The worker's default (shim) session — with ``fork`` this inherits
    the parent's session state, including any test overrides on
    :mod:`repro.harness.runner` — unless the parent session uses a
    different cache directory, in which case a per-directory worker
    session is created so disk-cache writes land where the parent will
    look for them.
    """
    from repro.harness import runner
    session = runner._shim_session()
    if cache_dir and str(session.results.directory) != cache_dir:
        session = _worker_sessions.get(cache_dir)
        if session is None:
            from repro.api.session import Session
            session = Session(cache_dir=cache_dir)
            _worker_sessions[cache_dir] = session
    return session


def _pool_worker(item: Tuple[int, "SimConfig", bool, str]) -> Outcome:
    """Simulate one configuration inside a pool worker."""
    index, config, use_cache, cache_dir = item
    result = _worker_session(cache_dir).run(config, use_cache=use_cache)
    return index, result.stats, result.wall_time_s, result.source


def _chunk_worker(
        payloads: Sequence[Tuple[int, "SimConfig", bool, str]]
) -> List[Any]:
    """Simulate a chunk of configurations in one worker round trip.

    The batched pool dispatches trace-homogeneous chunks (one
    workload, one total trace length, one cache policy), which run
    through a session :class:`~repro.api.session.BatchRunner`; the
    session's trace cache makes that one trace generation, one workload
    build, one predecode for the whole chunk.  A per-point failure
    comes back in-band as a five-tuple
    ``(index, None, 0.0, "", error)`` — alongside the usual four-tuple
    :data:`Outcome` successes — so one bad point costs one single-item
    retry instead of re-failing the whole chunk.  Heterogeneous chunks
    (legacy dispatchers, hand-built batches) fall back to per-item
    execution.
    """
    identities = {(config.workload, config.warmup + config.measure,
                   use_cache)
                  for _, config, use_cache, _ in payloads}
    if len(payloads) < 2 or len(identities) != 1:
        return [_pool_worker(payload) for payload in payloads]
    _, first, _, cache_dir = payloads[0]
    runner = _worker_session(cache_dir).batch_runner(
        first.workload, first.warmup + first.measure)
    outcomes: List[Any] = []
    for index, config, use_cache, _ in payloads:
        try:
            result = runner.run(config, use_cache=use_cache)
        except Exception as exc:  # noqa: BLE001 - reported in-band
            outcomes.append((index, None, 0.0, "",
                             f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((index, result.stats, result.wall_time_s,
                             result.source))
    return outcomes


# ----------------------------------------------------------------------
# the submission protocol
# ----------------------------------------------------------------------
class ExecutorBackend:
    """Base of every futures-style executor.

    Subclasses implement :meth:`as_completed`, the drive loop that
    resolves every submitted future; everything else — submission,
    progress callbacks, cancellation bookkeeping, the legacy
    ``execute()`` compatibility shim — is shared here.

    Parameters
    ----------
    max_retries:
        How many times a failing work item is redispatched before its
        exception surfaces on the :class:`SimFuture` (default 1, so a
        transient worker crash costs one retry).
    batch_size:
        Cap on how many trace-identical futures one
        :class:`BatchWorkItem` groups (``None`` = executor-specific
        default; ``1`` disables batching entirely).
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
        self._session: Optional["Session"] = None
        self._callbacks: List[ProgressCallback] = []
        #: submitted futures not yet taken by the drive loop
        self._queue: "Deque[SimFuture]" = deque()
        self._cancelling = False

    # -- wiring ----------------------------------------------------------
    def bind(self, session: "Session") -> "ExecutorBackend":
        """Attach the session work is executed against."""
        self._session = session
        return self

    def _require_session(self) -> "Session":
        if self._session is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a Session; call "
                f"bind(session) (Session.run_many does this for you)")
        return self._session

    def add_progress_callback(self,
                              callback: ProgressCallback
                              ) -> ProgressCallback:
        """Register *callback* for every lifecycle event; returns it."""
        self._callbacks.append(callback)
        return callback

    def remove_progress_callback(self, callback: ProgressCallback) -> None:
        """Unregister a callback (missing callbacks are ignored)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _emit(self, kind: str, future: SimFuture, **extra: Any) -> None:
        if not self._callbacks:
            return
        event = ExecEvent(kind=kind, key=future.key,
                          workload=future.config.workload,
                          index=future.index, attempt=future.attempts,
                          shard=future.shard, **extra)
        for callback in list(self._callbacks):
            callback(event)

    # -- submission ------------------------------------------------------
    def submit(self, item: WorkItem,
               shard: Optional[int] = None) -> SimFuture:
        """Queue one work item; returns its :class:`SimFuture`.

        Execution happens while :meth:`as_completed` is iterated —
        ``submit`` never blocks on simulation.
        """
        future = SimFuture(self, item, shard=shard)
        self._queue.append(future)
        self._emit(EVENT_SUBMITTED, future)
        return future

    # -- cancellation ----------------------------------------------------
    def cancel_all(self) -> int:
        """Gracefully cancel: stop dispatching, drain in-flight work.

        Every not-yet-started future is cancelled (and emits its
        ``cancelled`` event); futures already handed to a worker run
        to completion and still resolve normally.  Returns how many
        futures were cancelled.
        """
        self._cancelling = True
        cancelled = 0
        for future in list(self._queue):
            if future.cancel():
                cancelled += 1
        return cancelled

    def _on_future_cancelled(self, future: SimFuture) -> None:
        self._emit(EVENT_CANCELLED, future)

    # -- batch formation -------------------------------------------------
    def _next_batch(self,
                    limit: Optional[int] = None
                    ) -> Optional[BatchWorkItem]:
        """Pop the next :class:`BatchWorkItem` off the queue.

        Takes the queue head plus every queued future sharing its
        :func:`_batch_key` identity (up to *limit*); non-matching
        futures keep their relative order.  A cancelled head travels
        alone so the drive loops resolve it without touching a batch.
        Queue order is preserved *within* each trace identity, and a
        sweep's expansion is workload-major, so batching a sweep never
        reorders how its points land.
        """
        if not self._queue:
            return None
        head = self._queue.popleft()
        if head.cancelled() or (limit is not None and limit <= 1):
            return BatchWorkItem([head])
        key = _batch_key(head)
        futures = [head]
        kept: "Deque[SimFuture]" = deque()
        while self._queue:
            future = self._queue.popleft()
            if (len(futures) != limit and not future.cancelled()
                    and _batch_key(future) == key):
                futures.append(future)
            else:
                kept.append(future)
        self._queue.extend(kept)
        return BatchWorkItem(futures)

    def shutdown(self) -> None:
        """Release executor resources (pools close themselves per drive)."""

    # -- the drive loop --------------------------------------------------
    def as_completed(self) -> Iterator[SimFuture]:
        """Resolve and yield every submitted future, completion order."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _drain_inline(self, session: "Session",
                      limit: Optional[int] = None) -> Iterator[SimFuture]:
        """Run the queue in-process, batched, in submission order
        (shared by the serial executor and the pool's small-batch
        degradation).

        Trace-identical runs of the queue execute back to back through
        one :class:`~repro.api.session.BatchRunner`, so the session's
        trace cache generates (and, for kernel points, predecodes) the
        trace once per batch;
        each point still starts, finishes, retries and resolves
        individually, exactly as unbatched execution would.  *limit*
        overrides the executor's own ``batch_size`` cap (the pool
        passes its resolved dispatch cap when it degrades inline).
        """
        if limit is None:
            limit = self.batch_size
        self._cancelling = False
        while self._queue:
            batch = self._next_batch(limit)
            runner = None
            for future in batch.futures:
                # cancel_all between points of a batch must cancel the
                # batch's not-yet-started remainder, exactly as it
                # cancels the queued futures it can still see
                if self._cancelling and not future.done():
                    future.cancel()
                if future.cancelled():
                    yield future
                    continue
                if runner is None and len(batch) > 1:
                    runner = session.batch_runner(batch.workload,
                                                  batch.length)
                future._set_running()
                self._emit(EVENT_STARTED, future)
                self._run_one_inline(session, future, runner=runner)
                yield future

    def _run_one_inline(self, session: "Session", future: SimFuture,
                        runner: Any = None) -> None:
        """One item, in-process, with bounded retries.

        With a *runner* (a :class:`~repro.api.session.BatchRunner`),
        the point is checked against the batch's trace identity;
        semantics are otherwise identical to ``session.run``.
        """
        run = session.run if runner is None else runner.run
        while True:
            future.attempts += 1
            try:
                result = run(future.config,
                             use_cache=future.use_cache)
            except Exception as exc:  # noqa: BLE001 - retried/surfaced
                if future.attempts <= self.max_retries:
                    self._emit(EVENT_RETRIED, future, error=str(exc))
                    continue
                failure = WorkerFailure(
                    f"{future.config.workload} ({future.key}) failed "
                    f"after {future.attempts} attempt(s): {exc}",
                    attempts=future.attempts)
                failure.__cause__ = exc
                self._emit(EVENT_FAILED, future, error=str(exc))
                future._set_exception(failure)
                return
            future._set_result(result)
            self._emit(EVENT_FINISHED, future, source=result.source,
                       wall_time_s=result.wall_time_s)
            return

    # -- legacy-compatible batch surface ---------------------------------
    def execute(self, session: "Session",
                items: List[WorkItem]) -> Iterator[Outcome]:
        """Iterator-protocol compatibility: submit, drive, yield tuples.

        Lets any futures executor keep satisfying the original
        :class:`~repro.api.backends.ExecutionBackend` protocol; failed
        items raise their :class:`WorkerFailure`, cancelled items are
        skipped.
        """
        self.bind(session)
        for item in items:
            self.submit(item)
        for future in self.as_completed():
            if future.cancelled():
                continue
            result = future.result()
            yield (future.index, result.stats, result.wall_time_s,
                   result.source)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(ExecutorBackend):
    """Run every submitted configuration in-process, submission order.

    Trace-identical runs of the queue are batched through one
    :class:`~repro.api.session.BatchRunner` (``batch_size=None``
    groups without bound; ``1`` restores strictly unbatched
    execution).  Results, lifecycle events and completion order are
    identical either way — a sweep's expansion is workload-major, so
    its batches are exactly the already-adjacent runs of points.
    """

    name = "serial"

    def as_completed(self) -> Iterator[SimFuture]:
        yield from self._drain_inline(self._require_session())


class PoolExecutor(ExecutorBackend):
    """Fan submitted configurations over a ``multiprocessing`` pool.

    ``jobs=None`` uses :func:`repro.harness.runner.default_jobs`
    (``REPRO_JOBS`` env var, else the CPU count).  Queues that would
    not benefit from a pool (one pending item, or one worker) degrade
    to in-process execution.  The unit of worker dispatch is the
    :class:`BatchWorkItem`: trace-identical queued futures travel
    together (capped by ``batch_size``), and the worker runs the whole
    group through one :class:`~repro.api.session.BatchRunner` — one
    trace generation, one predecode per dispatch.  The legacy
    ``chunksize`` knob survives as the batch cap when ``batch_size``
    is not given (its old heuristic is subsumed by batch sizing; see
    ``scripts/bench.py --tune-chunksize``).  Per-point failures come
    back in-band and are redispatched singly with per-point
    ``attempts``, so one bad point cannot re-fail a whole batch.

    Retry covers exceptions *raised by* a worker.  A worker process
    dying outright (SIGKILL, OOM) is a ``multiprocessing.Pool`` blind
    spot — the pool respawns the worker but the in-flight task's
    callbacks never fire, so the drive loop would wait on it
    indefinitely.  Killing the whole run is always safe: a bound
    :class:`~repro.api.store.ResultStore` resumes from everything
    that landed.  Detecting individual worker deaths needs a
    ``BrokenProcessPool``-style executor (see the ROADMAP's remote
    executor item).
    """

    name = "process-pool"

    #: in-flight chunks kept per worker; small enough that cancel_all
    #: leaves little to drain, large enough to keep workers busy
    BACKLOG_PER_WORKER = 2

    def __init__(self, jobs: Optional[int] = None,
                 start_method: Optional[str] = None,
                 chunksize: Optional[int] = None,
                 max_retries: int = 1,
                 batch_size: Optional[int] = None) -> None:
        super().__init__(max_retries=max_retries, batch_size=batch_size)
        self.jobs = jobs
        self.start_method = start_method
        self.chunksize = chunksize

    def _resolved_jobs(self) -> int:
        if self.jobs is not None:
            return max(1, self.jobs)
        from repro.harness.runner import default_jobs
        return default_jobs()

    def _resolved_chunksize(self, items: int, workers: int) -> int:
        if self.chunksize is not None:
            return max(1, self.chunksize)
        # deterministic: ~4 chunks per worker, capped so progress
        # events stay reasonably fine-grained
        return max(1, min(8, items // (workers * 4)))

    def _resolved_batch_size(self, items: int, workers: int) -> int:
        """The cap on one dispatched batch.

        An explicit ``batch_size`` wins; an explicit ``chunksize``
        keeps acting as the dispatch-granularity cap it always was;
        otherwise batches grow to :data:`DEFAULT_BATCH_SIZE` (bounded
        by a fair per-worker share of the queue).
        """
        if self.batch_size is not None:
            return max(1, self.batch_size)
        if self.chunksize is not None:
            return self._resolved_chunksize(items, workers)
        return max(1, min(DEFAULT_BATCH_SIZE, items // max(1, workers)))

    def as_completed(self) -> Iterator[SimFuture]:
        session = self._require_session()
        total = len(self._queue)
        if total == 0:
            return
        jobs = self._resolved_jobs()
        if jobs <= 1 or total == 1:
            yield from self._drain_inline(
                session, self._resolved_batch_size(total, 1))
            return
        yield from self._drive_pool(session, total, jobs)

    def _drive_pool(self, session: "Session", total: int,
                    jobs: int) -> Iterator[SimFuture]:
        import multiprocessing
        import queue as queue_mod

        self._cancelling = False
        cache_dir = str(session.results.directory)
        method = self.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
        ctx = multiprocessing.get_context(method)
        workers = min(jobs, total)
        batch_limit = self._resolved_batch_size(total, workers)
        max_inflight = workers * self.BACKLOG_PER_WORKER

        done_q: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        resolved: "Deque[SimFuture]" = deque()
        inflight = 0

        def dispatch(pool, futures: Sequence[SimFuture]) -> None:
            nonlocal inflight
            batch = tuple(futures)
            payload = [(f.index, f.config, f.use_cache, cache_dir)
                       for f in batch]
            worker = _chunk_worker  # module global: monkeypatchable
            pool.apply_async(
                worker, (payload,),
                callback=lambda outs, fs=batch:
                    done_q.put(("ok", fs, outs)),
                error_callback=lambda exc, fs=batch:
                    done_q.put(("err", fs, exc)))
            inflight += 1

        def fill_window(pool) -> None:
            while (inflight < max_inflight and self._queue
                   and not self._cancelling):
                group = self._next_batch(batch_limit)
                batch: List[SimFuture] = []
                for future in group.futures:
                    if future.cancelled():
                        resolved.append(future)
                        continue
                    future.attempts += 1
                    future._set_running()
                    self._emit(EVENT_STARTED, future)
                    batch.append(future)
                if batch:
                    dispatch(pool, batch)

        yielded = 0
        with ctx.Pool(processes=workers) as pool:
            fill_window(pool)
            while yielded < total:
                while resolved:
                    yield resolved.popleft()
                    yielded += 1
                if yielded >= total:
                    break
                if inflight == 0:
                    # nothing running: remaining futures are queued
                    # (cancelled, or the window closed) — resolve them
                    if not self._queue:
                        fill_window(pool)
                        if inflight == 0 and not resolved:
                            break  # defensive: nothing left to wait on
                        continue
                    future = self._queue.popleft()
                    if not future.done():
                        future.cancel()
                    resolved.append(future)
                    continue
                status, batch, payload = done_q.get()
                inflight -= 1
                if status == "ok":
                    for future, outcome in zip(batch, payload):
                        error = outcome[4] if len(outcome) > 4 else None
                        if error:
                            # in-band per-point failure from a batched
                            # chunk: retry just this point, singly
                            self._land_point_failure(pool, future, error,
                                                     resolved, dispatch)
                            continue
                        _, stats, wall, source = outcome[:4]
                        result = SimResult(
                            config=future.config, stats=stats,
                            key=future.key, source=source,
                            wall_time_s=wall, backend=self.name)
                        future._set_result(result)
                        self._emit(EVENT_FINISHED, future, source=source,
                                   wall_time_s=wall)
                        resolved.append(future)
                else:
                    self._handle_failed_chunk(pool, batch, payload,
                                              resolved, dispatch)
                fill_window(pool)
            while resolved:
                yield resolved.popleft()
                yielded += 1

    def _handle_failed_chunk(self, pool, batch, exc, resolved,
                             dispatch) -> None:
        """Retry each item of a failed chunk singly (bounded), unless
        cancelling — then the failure surfaces immediately."""
        for future in batch:
            self._land_point_failure(pool, future, exc, resolved, dispatch)

    def _land_point_failure(self, pool, future, exc, resolved,
                            dispatch) -> None:
        """One point's worker failure: bounded single-item retry, or
        surface the :class:`WorkerFailure` on its future."""
        if future.attempts <= self.max_retries and not self._cancelling:
            # emit before bumping attempts so the event carries the
            # attempt that failed, matching the serial executor
            self._emit(EVENT_RETRIED, future, error=str(exc))
            future.attempts += 1
            dispatch(pool, (future,))
        else:
            failure = WorkerFailure(
                f"{future.config.workload} ({future.key}) failed "
                f"after {future.attempts} attempt(s): {exc}",
                attempts=future.attempts)
            failure.__cause__ = (exc if isinstance(exc, BaseException)
                                 else None)
            self._emit(EVENT_FAILED, future, error=str(exc))
            future._set_exception(failure)
            resolved.append(future)

    def __repr__(self) -> str:
        return (f"PoolExecutor(jobs={self.jobs!r}, "
                f"chunksize={self.chunksize!r}, "
                f"batch_size={self.batch_size!r})")


@register_executor("coordinator",
                   options=("jobs", "chunksize", "max_retries",
                            "batch_size"))
class CoordinatorExecutor(PoolExecutor):
    """The worker pool a coordinated sweep drives (shard-tagged).

    Behaviourally a :class:`PoolExecutor`; registered under its own
    name so ``--executor coordinator`` selects coordinated execution
    by name, the conformance suite covers the coordinator's executor,
    and results record which mode produced them.
    """

    name = "coordinator"


class LegacyBackendAdapter(ExecutorBackend):
    """Drive an iterator-style backend through the submission surface.

    Wraps anything satisfying the original
    :class:`~repro.api.backends.ExecutionBackend` protocol
    (``execute(session, items) -> outcomes``) so pre-futures backends
    keep plugging into :meth:`Session.run_many`.  Construction emits a
    ``DeprecationWarning`` — new backends should subclass
    :class:`ExecutorBackend` instead.

    Limitations inherent to the wrapped protocol: ``started`` events
    fire for the whole batch when it is handed over (the iterator
    exposes no per-item start), retries are unavailable
    (``max_retries`` is forced to 0), and cancellation closes the
    iterator — items the backend never yielded resolve as cancelled.
    """

    def __init__(self, backend: Any) -> None:
        super().__init__(max_retries=0)
        self.backend = backend
        self.name = getattr(backend, "name", type(backend).__name__)
        warnings.warn(
            f"iterator-style execution backends are deprecated; "
            f"{type(backend).__name__} should implement the "
            f"repro.api.exec.ExecutorBackend submission protocol "
            f"(submit/as_completed) instead of execute()",
            DeprecationWarning, stacklevel=3)

    def as_completed(self) -> Iterator[SimFuture]:
        session = self._require_session()
        self._cancelling = False
        batch: List[SimFuture] = []
        while self._queue:
            future = self._queue.popleft()
            if future.cancelled():
                yield future
                continue
            batch.append(future)
        if not batch:
            return
        by_index = {future.index: future for future in batch}
        items: List[WorkItem] = [(f.index, f.config, f.use_cache)
                                 for f in batch]
        for future in batch:
            future.attempts = 1
            future._set_running()
            self._emit(EVENT_STARTED, future)
        iterator = self.backend.execute(session, items)
        try:
            for index, stats, wall, source in iterator:
                future = by_index.pop(index)
                result = SimResult(config=future.config, stats=stats,
                                   key=future.key, source=source,
                                   wall_time_s=wall, backend=self.name)
                future._set_result(result)
                self._emit(EVENT_FINISHED, future, source=source,
                           wall_time_s=wall)
                yield future
                if self._cancelling:
                    break
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
        for future in list(by_index.values()):
            future._cancel_running()
            yield future

    def __repr__(self) -> str:
        return f"LegacyBackendAdapter({self.backend!r})"


def as_executor(backend: Any) -> ExecutorBackend:
    """Coerce *backend* to the submission protocol.

    Futures executors pass through; iterator-style backends are
    wrapped in a :class:`LegacyBackendAdapter` (which warns); anything
    else raises ``TypeError``.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if callable(getattr(backend, "execute", None)):
        return LegacyBackendAdapter(backend)
    raise TypeError(
        f"{backend!r} is not an execution backend (need submit()/"
        f"as_completed(), or a legacy execute() method)")


# ----------------------------------------------------------------------
# the sharded-sweep coordinator
# ----------------------------------------------------------------------
class CoordinatorBackend:
    """Drive every shard of a sweep from one process.

    Expands a :class:`~repro.api.spec.SweepSpec`, partitions the
    product with :meth:`~repro.api.spec.SweepSpec.shard`'s key-stable
    rule (:func:`~repro.api.spec.shard_of` on each config's cache
    key), and submits all shards —
    tagged, shard-major — to one futures executor over a worker pool,
    streaming each landed outcome into the bound
    :class:`~repro.api.store.ResultStore` as it completes.  The
    replacement for *k* separate ``repro sweep --shard i/k``
    invocations: identical partitioning, identical results (the store
    is bit-for-bit what a serial run or a k-invocation shard union
    produces), one process, live progress, crash-resume preserved
    (stored points are served, never re-simulated).

    Parameters
    ----------
    shards:
        Partition count *k* (``None`` = the executor's worker count).
    jobs / chunksize / batch_size / max_retries:
        Forwarded to the default :class:`PoolExecutor` when no
        *executor* is supplied.  Sharding stays key-stable under
        batching: the partition is computed per config key first, and
        each shard's points then re-group into their own
        :class:`BatchWorkItem`\\ s (batches never span shards).
    executor:
        An explicit :class:`ExecutorBackend` to drive instead.
    """

    name = "coordinator"

    def __init__(self, shards: Optional[int] = None,
                 jobs: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 max_retries: int = 1,
                 executor: Optional[ExecutorBackend] = None,
                 batch_size: Optional[int] = None) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shard count must be >= 1")
        self.shards = shards
        self.jobs = jobs
        self.chunksize = chunksize
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.executor = executor
        #: counts of the last run, for reporting ({"shards", "points",
        #: "per_shard"})
        self.last_report: Dict[str, Any] = {}

    def _build_executor(self) -> ExecutorBackend:
        if self.executor is not None:
            return self.executor
        from repro.api.executors import build_executor
        return build_executor("coordinator", jobs=self.jobs,
                              chunksize=self.chunksize,
                              batch_size=self.batch_size,
                              max_retries=self.max_retries)

    def run(self, session: "Session", spec: "SweepSpec",
            store: Optional["ResultStore"] = None,
            use_cache: bool = True,
            progress: Optional[ProgressCallback] = None,
            inspect: Any = None,
            ) -> List[SimResult]:
        """Run the whole sweep; results in :meth:`SweepSpec.expand` order.

        With a *store*, stored points are served without simulating
        (crash-resume) and every fresh outcome is appended as it lands;
        the store is bound to the spec's ``sweep_id`` up front so a
        resume against the wrong spec fails fast.  *inspect* enables
        online QA over the coordinated drive
        (:class:`~repro.api.inspect.SweepInspector`); shard tags on
        the lifecycle events give the inspector its per-shard
        throughput and dead-shard view.
        """
        executor = self._build_executor()
        resolved_jobs = getattr(executor, "_resolved_jobs", lambda: 1)()
        count = self.shards if self.shards is not None \
            else max(1, resolved_jobs)

        configs = spec.expand()
        if store is not None:
            store.bind(spec.sweep_id()).touch()

        # one expansion, partitioned with SweepSpec.shard's key-stable
        # rule (shard_of on each config's cache key): identical
        # membership and in-shard order to k spec.shard(i, k) calls,
        # without re-expanding (and re-hashing) the product k times
        from repro.api.spec import shard_of
        buckets: List[List[int]] = [[] for _ in range(count)]
        for index, config in enumerate(configs):
            buckets[shard_of(config.key(), count)].append(index)
        submission: List[Tuple[int, Optional[int]]] = [
            (index, shard_index)
            for shard_index, bucket in enumerate(buckets)
            for index in bucket]
        self.last_report = {"shards": count, "points": len(configs),
                            "per_shard": [len(bucket)
                                          for bucket in buckets]}
        from repro.api.inspect import as_inspector
        return session._drive(executor, configs, submission,
                              use_cache=use_cache, store=store,
                              progress=progress,
                              inspect=as_inspector(inspect, store))

    def __repr__(self) -> str:
        return (f"CoordinatorBackend(shards={self.shards!r}, "
                f"jobs={self.jobs!r})")
