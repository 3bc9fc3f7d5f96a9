"""Futures-based execution: submission, lifecycle events, retries.

This module is the execution layer's supported surface.  The
submission protocol decomposes execution into observable, controllable
pieces:

* :class:`SimFuture` — one submitted configuration's pending outcome:
  ``result()`` / ``exception()`` / ``cancel()`` / ``done()``, carrying
  provenance (config, cache key, batch index, attempts).
* :class:`ExecutorBackend` — the submission surface every executor
  implements: ``submit(item) -> SimFuture`` plus ``as_completed()``,
  progress callbacks receiving structured :class:`ExecEvent` lifecycle
  events (``submitted``/``started``/``finished``/``failed``/
  ``retried``/``cancelled``, each delivered exactly once per
  transition), bounded retry on worker failure, and graceful
  cancellation (``cancel_all`` stops dispatching but drains whatever
  is already in flight).
* :class:`SerialExecutor` / :class:`PoolExecutor` — the in-process and
  worker-process implementations, named ``"serial"`` and
  ``"process-pool"`` (:mod:`repro.api.executors`).

One dispatch unit: every executor dispatches :class:`BatchWorkItem` units
— queued futures sharing one trace identity (workload + total trace
length + cache policy), capped by ``batch_size`` — and a lone
point is simply a batch of one.  Each dispatch pays one trace
generation, one workload build and one columnar predecode for the
whole group (the session's trace-cache entry is shared by every
point), whether it runs inline through a
:class:`~repro.api.session.BatchRunner` or in a pool worker.

One outcome path: however an executor runs a point, it reports to
the ``ExecutorBackend`` helpers ``_start``, ``_finish`` and
``_retry_or_fail`` — the only code that resolves a future, counts its
attempts, builds its :class:`WorkerFailure` or emits its lifecycle
events.

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

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator,
                    List, Optional, Sequence, Tuple)

from repro.api.result import SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.harness.config import SimConfig

#: a unit of pending work: position in the batch, config, cache policy
WorkItem = Tuple[int, "SimConfig", bool]
#: a worker's report on one point: ``(error, stats, wall seconds,
#: source)`` — ``error`` is ``None`` on success; a failure carries its
#: error (text, or the raised exception) and no stats
Outcome = Tuple[Any, Optional[Dict[str, Any]], float, str]

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

    def __init__(self, executor: "ExecutorBackend", item: WorkItem) -> None:
        self.index, self.config, self.use_cache = item
        #: the configuration's stable cache key (provenance)
        self.key = self.config.key()
        #: attempts dispatched so far (grows on retries)
        self.attempts = 0
        self._executor = executor
        self._state = _PENDING
        self._result: Optional[SimResult] = None
        self._exception: Optional[BaseException] = None
        self._cond = threading.Condition()

    # -- state queries ---------------------------------------------------
    def done(self) -> bool:
        """True once resolved: result, exception, or cancelled."""
        with self._cond:
            return self._state in (_DONE, _CANCELLED)

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == _CANCELLED

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
        return True

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

    def _set_exception(self, exc: BaseException) -> None:
        with self._cond:
            self._exception = exc
            self._state = _DONE
            self._cond.notify_all()

    def __repr__(self) -> str:
        return (f"SimFuture({self.config.workload!r}, key={self.key!r}, "
                f"state={self._state!r})")


# ----------------------------------------------------------------------
# trace-shared batches
# ----------------------------------------------------------------------
def _batch_key(future: SimFuture) -> Tuple[str, int, bool]:
    """The grouping identity for trace-shared batching.

    Futures batch together when they share a workload, a total trace
    length (``warmup + measure``) and a cache policy — exactly the
    inputs one trace generation + one predecode can serve.  The engine is deliberately *not* part of the key: the
    trace's one predecode serves every kernel member, and object-engine
    members (the differential reference) never touch it.
    """
    config = future.config
    return (config.workload, config.warmup + config.measure,
            future.use_cache)


@dataclass
class BatchWorkItem:
    """A trace-homogeneous slice of the queue, dispatched as one unit.

    Every member future shares the :func:`_batch_key` identity (a
    cancelled future travels alone), so an executor can run the whole
    group through one :class:`~repro.api.session.BatchRunner` while
    still resolving each member per point.
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


# ----------------------------------------------------------------------
# pool worker functions (module-level: picklable for any start method)
# ----------------------------------------------------------------------
#: per-process sessions for pool workers driving a non-default cache dir
_worker_sessions: Dict[str, "Session"] = {}


def _worker_session(cache_dir: str) -> "Session":
    """The session a pool worker runs against.

    The worker's default session — with ``fork`` this inherits the
    parent's default session state — unless the parent session uses a
    different cache directory, in which case a per-directory worker
    session is created so disk-cache writes land where the parent will
    look for them.
    """
    from repro.api.session import Session, default_session
    session = default_session()
    if cache_dir and str(session.results.directory) != cache_dir:
        session = _worker_sessions.get(cache_dir)
        if session is None:
            session = Session(cache_dir=cache_dir)
            _worker_sessions[cache_dir] = session
    return session


def _chunk_worker(
        payloads: Sequence[Tuple["SimConfig", bool, str]]) -> List[Outcome]:
    """Simulate one dispatched batch in one worker round trip.

    Every chunk is a trace-homogeneous :class:`BatchWorkItem` (one
    workload, one total trace length, one cache policy) or a
    single-point retry, and runs through a session
    :class:`~repro.api.session.BatchRunner`; the session's trace cache
    makes that one trace generation, one workload build, one predecode
    for the whole chunk.  Each point comes back as one
    :data:`Outcome`, a failure in-band as its error text, so one bad
    point costs one single-item retry instead of re-failing the whole
    chunk.
    """
    first, _, cache_dir = payloads[0]
    runner = _worker_session(cache_dir).batch_runner(
        first.workload, first.warmup + first.measure)
    outcomes: List[Outcome] = []
    for config, use_cache, _ in payloads:
        try:
            result = runner.run(config, use_cache=use_cache)
        except Exception as exc:  # noqa: BLE001 - reported in-band
            outcomes.append((f"{type(exc).__name__}: {exc}", None, 0.0, ""))
        else:
            outcomes.append((None, result.stats, result.wall_time_s,
                             result.source))
    return outcomes


# ----------------------------------------------------------------------
# the submission protocol
# ----------------------------------------------------------------------
class ExecutorBackend:
    """Base of every futures-style executor.

    Subclasses implement :meth:`as_completed`, the drive loop that
    resolves every submitted future; everything else — submission,
    progress callbacks, cancellation bookkeeping and the outcome path
    (:meth:`_start`, :meth:`_finish`, :meth:`_retry_or_fail`, the only
    code that resolves a future or emits its
    ``started``/``finished``/``retried``/``failed`` events) — is
    shared here.

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
                          **extra)
        for callback in list(self._callbacks):
            callback(event)

    # -- submission ------------------------------------------------------
    def submit(self, item: WorkItem) -> SimFuture:
        """Queue one work item; returns its :class:`SimFuture`.

        Execution happens while :meth:`as_completed` is iterated —
        ``submit`` never blocks on simulation.
        """
        future = SimFuture(self, item)
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

    # -- the outcome path ------------------------------------------------
    def _start(self, future: SimFuture) -> None:
        """First dispatch of *future*: attempt 1, running, ``started``."""
        future.attempts = 1
        future._set_running()
        self._emit(EVENT_STARTED, future)

    def _finish(self, future: SimFuture, stats: Dict[str, Any],
                wall_time_s: float, source: str) -> None:
        """Resolve *future* with a landed point and emit ``finished``."""
        future._set_result(SimResult(
            config=future.config, stats=stats, key=future.key,
            source=source, wall_time_s=wall_time_s, backend=self.name))
        self._emit(EVENT_FINISHED, future, source=source,
                   wall_time_s=wall_time_s)

    def _retry_or_fail(self, future: SimFuture, error: Any,
                       retry: bool = True) -> bool:
        """One failed attempt of *future*; ``True`` = redispatch it.

        Within ``max_retries`` (and unless cancelling, or the caller
        has nowhere to *retry*), emit ``retried`` for the attempt that
        failed and count the next one.  Otherwise resolve the future
        with a :class:`WorkerFailure` — chained to *error* when that
        is a real exception — and emit ``failed``.
        """
        if (retry and future.attempts <= self.max_retries
                and not self._cancelling):
            self._emit(EVENT_RETRIED, future, error=str(error))
            future.attempts += 1
            return True
        failure = WorkerFailure(
            f"{future.config.workload} ({future.key}) failed after "
            f"{future.attempts} attempt(s): {error}",
            attempts=future.attempts)
        if isinstance(error, BaseException):
            failure.__cause__ = error
        self._emit(EVENT_FAILED, future, error=str(error))
        future._set_exception(failure)
        return False

    # -- the drive loop --------------------------------------------------
    def as_completed(self) -> Iterator[SimFuture]:
        """Resolve and yield every submitted future, completion order."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _drain_inline(self, session: "Session",
                      limit: Optional[int] = None) -> Iterator[SimFuture]:
        """Run the queue in-process, batched, in submission order
        (shared by the serial executor and the pool's small-batch
        degradation).

        Every batch — a batch of one included — runs through one
        :class:`~repro.api.session.BatchRunner`, so the session's
        trace cache generates (and, for kernel points, predecodes) the
        trace once per batch; each point still starts, finishes,
        retries and resolves individually.  *limit* overrides the
        executor's own ``batch_size`` cap (the pool passes its
        resolved dispatch cap when it degrades inline).
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
                if runner is None:
                    runner = session.batch_runner(batch.workload,
                                                  batch.length)
                self._start(future)
                while True:
                    try:
                        result = runner.run(future.config,
                                            use_cache=future.use_cache)
                    except Exception as exc:  # noqa: BLE001 - retried
                        if self._retry_or_fail(future, exc):
                            continue
                    else:
                        self._finish(future, result.stats,
                                     result.wall_time_s, result.source)
                    break
                yield future

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


def default_jobs() -> int:
    """Worker count: the ``REPRO_JOBS`` env var, else the CPU count.

    A ``REPRO_JOBS`` value that is not an integer raises ``ValueError``.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


class PoolExecutor(ExecutorBackend):
    """Fan submitted configurations over a pool of worker processes.

    ``jobs=None`` uses :func:`default_jobs`
    (``REPRO_JOBS`` env var, else the CPU count).  Queues that would
    not benefit from a pool (one pending item, or one worker) degrade
    to in-process execution.  The unit of worker dispatch is the
    :class:`BatchWorkItem`: trace-identical queued futures travel
    together (capped by ``batch_size``), and the worker runs the whole
    group through one :class:`~repro.api.session.BatchRunner` — one
    trace generation, one predecode per dispatch.  Per-point failures
    come back in-band and are redispatched singly with per-point
    ``attempts``, so one bad point cannot re-fail a whole batch.

    The pool is a ``concurrent.futures.ProcessPoolExecutor`` (``fork``
    workers where the platform has them).  A worker that dies outright
    (SIGKILL, OOM) breaks the pool, which fails everything it held
    with ``BrokenProcessPool``; the drive loop then builds a fresh
    pool and sends each point that was in flight through the retry
    path, so a dead worker costs every such point one attempt.
    """

    name = "process-pool"

    #: in-flight chunks kept per worker; small enough that cancel_all
    #: leaves little to drain, large enough to keep workers busy
    BACKLOG_PER_WORKER = 2

    def __init__(self, jobs: Optional[int] = None,
                 max_retries: int = 1,
                 batch_size: Optional[int] = None) -> None:
        super().__init__(max_retries=max_retries, batch_size=batch_size)
        self.jobs = jobs

    def _resolved_jobs(self) -> int:
        if self.jobs is not None:
            return max(1, self.jobs)
        return default_jobs()

    def _resolved_batch_size(self, items: int, workers: int) -> int:
        """The cap on one dispatched batch.

        An explicit ``batch_size`` wins; otherwise batches grow to
        :data:`DEFAULT_BATCH_SIZE` (bounded by a fair per-worker share
        of the queue).
        """
        if self.batch_size is not None:
            return max(1, self.batch_size)
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
        from concurrent.futures import (FIRST_COMPLETED, Future,
                                        ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool

        self._cancelling = False
        cache_dir = str(session.results.directory)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        workers = min(jobs, total)
        batch_limit = self._resolved_batch_size(total, workers)
        max_inflight = workers * self.BACKLOG_PER_WORKER

        resolved: "Deque[SimFuture]" = deque()
        #: pool future -> the batch it runs
        inflight: "Dict[Future, Tuple[SimFuture, ...]]" = {}
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

        def dispatch(futures: Sequence[SimFuture]) -> None:
            batch = tuple(futures)
            payload = [(f.config, f.use_cache, cache_dir) for f in batch]
            worker = _chunk_worker  # module global: monkeypatchable
            try:
                handle = pool.submit(worker, payload)
            except BrokenProcessPool as exc:
                # a worker died before any future reported it: this
                # batch fails with the pool, like the ones in flight
                handle = Future()
                handle.set_exception(exc)
            inflight[handle] = batch

        def fill_window() -> None:
            while (len(inflight) < max_inflight and self._queue
                   and not self._cancelling):
                group = self._next_batch(batch_limit)
                batch: List[SimFuture] = []
                for future in group.futures:
                    if future.cancelled():
                        resolved.append(future)
                        continue
                    self._start(future)
                    batch.append(future)
                if batch:
                    dispatch(batch)

        def land(handle: Future, retries: List[SimFuture]) -> bool:
            """Resolve one finished pool future; ``True`` = pool broke."""
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
                outcomes = [(crash, None, 0.0, "")] * len(batch)
            for future, (error, stats, wall, source) in zip(batch,
                                                            outcomes):
                if error is None:
                    self._finish(future, stats, wall, source)
                elif self._retry_or_fail(future, error):
                    retries.append(future)  # retries singly
                    continue
                resolved.append(future)
            return isinstance(crash, BrokenProcessPool)

        yielded = 0
        try:
            fill_window()
            while yielded < total:
                while resolved:
                    yield resolved.popleft()
                    yielded += 1
                if yielded >= total:
                    break
                if not inflight:
                    # nothing running: remaining futures are queued
                    # (cancelled, or the window closed) — resolve them
                    if not self._queue:
                        fill_window()
                        if not inflight and not resolved:
                            break  # defensive: nothing left to wait on
                        continue
                    future = self._queue.popleft()
                    if not future.done():
                        future.cancel()
                    resolved.append(future)
                    continue
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                retries: List[SimFuture] = []
                broken = False
                for handle in done:
                    broken = land(handle, retries) or broken
                if broken:
                    # the broken pool has failed (or will fail) all it
                    # held; once it is shut down, land the rest too
                    pool.shutdown(wait=True)
                    for handle in list(inflight):
                        land(handle, retries)
                    pool = ProcessPoolExecutor(max_workers=workers,
                                               mp_context=ctx)
                for future in retries:
                    dispatch((future,))
                fill_window()
            while resolved:
                yield resolved.popleft()
                yielded += 1
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return (f"PoolExecutor(jobs={self.jobs!r}, "
                f"batch_size={self.batch_size!r})")


def as_executor(backend: Any) -> ExecutorBackend:
    """Normalise a ``backend=`` argument to an executor.

    A string names one (:func:`repro.api.executors.executor_from_options`:
    ``"serial"`` or ``"process-pool"``); futures executors
    pass through; anything else raises ``TypeError``.
    """
    if isinstance(backend, str):
        from repro.api.executors import executor_from_options
        backend = executor_from_options(backend)
    if isinstance(backend, ExecutorBackend):
        return backend
    raise TypeError(
        f"{backend!r} is not an execution backend (subclass "
        f"repro.api.exec.ExecutorBackend: submit()/as_completed())")
