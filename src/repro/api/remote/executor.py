"""``RemoteExecutor``: dispatch submitted configs over a worker fleet.

Named ``"remote"`` (:mod:`repro.api.executors`).  A static list of
``HOST:PORT`` worker addresses becomes one
:class:`~repro.api.exec.ExecutorBackend`: each drive (`as_completed`)
connects one link per reachable worker, runs a dispatcher thread per
link that pops queued futures and round-trips them, and funnels every
dispatcher observation through a single message queue back to the
driving thread — so lifecycle events keep their exactly-once
guarantees and are delivered on the thread iterating
``as_completed()``, exactly like the local executors.

The dispatch unit is the :class:`~repro.api.exec.BatchWorkItem`:
each pop takes trace-identical futures (up to ``batch_size``; a lone
point is a batch of one) and ships them as one ``run_batch`` frame,
so the worker pays one trace generation and predecode for the group.
Results come back as streamed ``point_done`` sub-frames, decoded and
checked by the one frame reader (:meth:`_WorkerLink.run_batch`) into
the executor layer's :data:`~repro.api.exec.Outcome` shape, so every
point still starts, finishes, fails and retries individually through
the shared :class:`~repro.api.exec.ExecutorBackend` outcome path.

Failure semantics:

* a worker answering ``ok: false`` (the simulation raised) costs a
  bounded retry (``max_retries``), re-queued so any healthy worker —
  not necessarily the failing one — picks it up;
* a worker going silent longer than ``heartbeat_timeout`` (workers
  heartbeat every couple of seconds while simulating), dropping the
  connection or sending a malformed reply (a
  :class:`~repro.api.remote.protocol.ProtocolError`) marks the *link*
  dead: its in-flight items are retried on
  the surviving links and the dead link dispatches nothing more this
  drive (the next drive reconnects from scratch).  A worker dying
  mid-batch loses only the batch's *unfinished* points — every
  ``point_done`` already streamed stays resolved, so the retry
  re-dispatches (and the store re-simulates) nothing that completed;
* when retries are exhausted — or no links survive — the item's
  future resolves with :class:`~repro.api.exec.WorkerFailure`; a
  drive that cannot reach *any* worker raises
  :class:`WorkerFleetError` instead of failing items one by one.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.api.exec import (DEFAULT_BATCH_SIZE, ExecutorBackend, Outcome,
                            SimFuture)
from repro.api.remote.protocol import (ProtocolError, connect,
                                       format_address, parse_address,
                                       recv_frame, send_frame)

WorkerAddress = Union[str, Tuple[str, int]]


class WorkerFleetError(RuntimeError):
    """No worker of the configured fleet is reachable."""


class _WorkerLink:
    """One live connection to one worker."""

    def __init__(self, address: Tuple[str, int],
                 connect_timeout: float,
                 heartbeat_timeout: float) -> None:
        self.address = address
        self.label = format_address(address)
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self._sock: Optional[socket.socket] = None

    def open(self) -> bool:
        """Connect and ping; ``False`` when the worker is unreachable."""
        try:
            sock = connect(self.address, timeout=self.connect_timeout)
            sock.settimeout(self.heartbeat_timeout)
            send_frame(sock, {"op": "ping"})
            reply = recv_frame(sock)
            if reply is None or not reply.get("ok"):
                sock.close()
                return False
        except (OSError, ProtocolError):
            return False
        self._sock = sock
        return True

    def run_batch(self, futures: Sequence[SimFuture]
                  ) -> Iterator[Tuple[int, Outcome]]:
        """Round-trip one trace-identity batch as a ``run_batch`` frame.

        Yields ``(position, outcome)`` for each streamed
        ``point_done`` (``position`` indexes into *futures*), returning
        after the trailing ``done`` frame.  Heartbeats and point
        completions both reset the silence clock, so stragglers are
        judged per point, not per batch.  A reply that does not decode
        raises :class:`ProtocolError`.
        """
        assert self._sock is not None
        send_frame(self._sock, {
            "op": "run_batch", "id": futures[0].key,
            "items": [{"config": future.config.to_dict(),
                       "use_cache": future.use_cache}
                      for future in futures]})
        while True:
            frame = recv_frame(self._sock)
            if frame is None:
                raise ProtocolError(
                    f"worker {self.label} closed the connection "
                    f"mid-batch")
            op = frame.get("op")
            if op == "heartbeat":
                continue  # still simulating; the timeout restarts
            if op == "point_done":
                yield self._decode_point(frame)
                continue
            if op == "done":
                return  # caller resolves any unfinished leftovers
            raise ProtocolError(
                f"worker {self.label} sent unexpected {op!r} frame "
                f"mid-batch")

    def _decode_point(self, frame: Dict[str, Any]) -> Tuple[int, Outcome]:
        """``(position, outcome)`` of one ``point_done`` frame."""
        try:
            index = frame.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                raise ValueError(f"index {index!r} is not an integer")
            if not frame.get("ok"):
                return index, (str(frame.get("error", "worker error")),
                               None, 0.0, "")
            stats = frame.get("stats") or {}
            if not isinstance(stats, dict):
                raise ValueError(f"stats {stats!r} is not an object")
            return index, (None, stats,
                           float(frame.get("wall_time_s", 0.0)),
                           str(frame.get("source", "simulated")))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"worker {self.label} sent a malformed point_done "
                f"frame: {exc}") from None

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class RemoteExecutor(ExecutorBackend):
    """Fan submitted configurations over TCP simulation workers."""

    name = "remote"

    def __init__(self, workers: Sequence[WorkerAddress] = (),
                 max_retries: int = 1,
                 connect_timeout: float = 5.0,
                 heartbeat_timeout: float = 15.0,
                 batch_size: Optional[int] = None) -> None:
        super().__init__(max_retries=max_retries, batch_size=batch_size)
        if isinstance(workers, str):
            workers = [part for part in workers.split(",") if part]
        self.addresses: List[Tuple[str, int]] = []
        for worker in workers:
            if isinstance(worker, str):
                self.addresses.append(parse_address(worker))
            else:
                host, port = worker
                self.addresses.append((str(host), int(port)))
        if not self.addresses:
            raise ValueError(
                "the remote executor needs at least one worker "
                "address (workers=[\"HOST:PORT\", ...]; start them "
                "with `repro worker --listen HOST:PORT`)")
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout

    # ------------------------------------------------------------------
    def as_completed(self) -> Iterator[SimFuture]:
        total = len(self._queue)
        if total == 0:
            return
        self._cancelling = False
        if all(future.cancelled() for future in self._queue):
            # nothing left to execute (Session._drive's failure path
            # re-drains after cancel_all): no sockets needed
            while self._queue:
                yield self._queue.popleft()
            return
        yield from self._drive(total)

    def _drive(self, total: int) -> Iterator[SimFuture]:
        links = [_WorkerLink(address, self.connect_timeout,
                             self.heartbeat_timeout)
                 for address in self.addresses]
        links = [link for link in links if link.open()]
        if not links:
            fleet = ", ".join(format_address(a) for a in self.addresses)
            raise WorkerFleetError(
                f"none of the {len(self.addresses)} configured "
                f"worker(s) are reachable: {fleet}")

        messages: "queue.SimpleQueue" = queue.SimpleQueue()
        work = threading.Condition()
        stop = threading.Event()
        alive = len(links)
        threads = [threading.Thread(
            target=self._serve_link, args=(link, messages, work, stop),
            name=f"repro-remote-{link.label}", daemon=True)
            for link in links]
        for thread in threads:
            thread.start()

        yielded = 0
        try:
            while yielded < total:
                kind, future, payload = messages.get()
                if kind == "dispatch":
                    # first dispatch = the item started; redispatches
                    # already counted their attempt when they retried
                    if future.attempts == 0 and not future.cancelled():
                        self._start(future)
                    continue
                if kind == "lost":
                    # a dead link surfaces once, carrying every future
                    # it still had in flight (a batch loses only its
                    # unfinished points — streamed point_done results
                    # already resolved through "outcome")
                    alive -= 1
                    for item in future:
                        if (item.cancelled()
                                or not self._requeue(item, payload,
                                                     alive, work)):
                            yield item
                            yielded += 1
                elif kind == "drop" or future.cancelled():
                    # cancelled before dispatch, or between the
                    # dispatcher's pop and now: the `cancelled` event
                    # already fired, so any outcome is discarded
                    yield future
                    yielded += 1
                else:  # "outcome"
                    error, stats, wall, source = payload
                    if error is None:
                        self._finish(future, stats, wall, source)
                    elif self._requeue(future, error, alive, work):
                        continue
                    yield future
                    yielded += 1
                if alive == 0 and yielded < total:
                    # fleet collapsed: nothing queued can ever run
                    while self._queue:
                        pending = self._queue.popleft()
                        if not pending.done():
                            self._retry_or_fail(
                                pending, "no reachable workers left",
                                retry=False)
                        yield pending
                        yielded += 1
        finally:
            stop.set()
            with work:
                work.notify_all()
            for link in links:
                link.close()
            for thread in threads:
                thread.join(timeout=2.0)

    def _requeue(self, future: SimFuture, error: str, alive: int,
                 work) -> bool:
        """Retry-or-fail a failed point; ``True`` when it went back on
        the queue for any surviving worker to pick up."""
        if not self._retry_or_fail(future, error, retry=alive > 0):
            return False
        with work:
            self._queue.append(future)
            work.notify()
        return True

    def _serve_link(self, link: _WorkerLink, messages, work,
                    stop: threading.Event) -> None:
        """Dispatcher thread: pop queued batches, round-trip them.

        Every batch ships as one ``run_batch`` frame and resolves
        point by point from the streamed ``point_done`` frames, so a
        link dying mid-batch reports only the points that had not
        finished.  A cancelled future never touches the socket.
        """
        limit = (self.batch_size if self.batch_size is not None
                 else DEFAULT_BATCH_SIZE)
        while not stop.is_set():
            with work:
                batch = self._next_batch(limit)
                if batch is None:
                    work.wait(timeout=0.05)
                    continue
            unresolved: Dict[int, SimFuture] = {}
            for future in batch.futures:
                if future.cancelled():
                    messages.put(("drop", future, None))
                else:
                    messages.put(("dispatch", future, None))
                    unresolved[len(unresolved)] = future
            if not unresolved:
                continue
            futures = list(unresolved.values())
            try:
                for position, outcome in link.run_batch(futures):
                    future = unresolved.pop(position, None)
                    if future is None:
                        raise ProtocolError(
                            f"worker {link.label} answered for "
                            f"unknown batch point {position}")
                    messages.put(("outcome", future, outcome))
                if unresolved:
                    raise ProtocolError(
                        f"worker {link.label} ended a batch with "
                        f"{len(unresolved)} point(s) unanswered")
            except (OSError, ProtocolError) as exc:
                link.close()
                messages.put((
                    "lost", [unresolved[pos] for pos in sorted(unresolved)],
                    f"worker {link.label} lost mid-batch: {exc}"))
                return

    def __repr__(self) -> str:
        fleet = ",".join(format_address(a) for a in self.addresses)
        return f"RemoteExecutor(workers=[{fleet}])"
