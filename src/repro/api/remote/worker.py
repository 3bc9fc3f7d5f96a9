"""The ``repro worker`` process: simulate configs sent over TCP.

A :class:`WorkerServer` accepts connections from
:class:`~repro.api.remote.executor.RemoteExecutor` and serves one request type for simulation: ``run_batch``,
whose ``items`` list carries serialized
:class:`~repro.harness.config.SimConfig` payloads sharing one trace
identity (a lone point is a batch of one).  The worker drives them
through one :class:`~repro.api.session.BatchRunner` of an ordinary
:class:`~repro.api.session.Session` and streams a ``point_done`` frame
per point as it finishes — statistics, wall time and cache
provenance, or ``ok: false`` plus the stringified error, which the
dispatching executor turns into a bounded retry — then a trailing
``done``.  The server's session is persistent across frames, so
sequential batches of the same workload reuse its trace-cache entry
(workload metadata, trace, predecode, oracle annotations) instead of
preparing again per frame.  A request the worker cannot parse — an
unknown op, or ``items`` that is not a list — is answered with an
``error`` frame, and the connection keeps serving.

While a simulation is running the connection emits ``heartbeat``
frames every ``heartbeat_interval`` seconds, so a dispatcher with a
receive timeout can tell a *slow* worker (heartbeats keep arriving)
from a *dead or wedged* one (silence) without guessing how long a
simulation should take.

Concurrency model: one thread per connection, but simulations are
serialized behind a lock — a worker is one simulation slot
(parallelism comes from running more workers), and the session's
trace cache is not thread-safe.  ``port=0`` binds an
ephemeral port; the CLI prints the resolved address as
``worker listening on HOST:PORT`` so spawners can discover it.
"""

from __future__ import annotations

import queue as queue_mod
import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.api.remote.protocol import (ProtocolError, recv_frame,
                                       send_frame)
from repro.api.session import Session
from repro.harness.config import SimConfig


class WorkerServer:
    """One TCP simulation worker (one simulation at a time)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 session: Optional[Session] = None,
                 heartbeat_interval: float = 2.0) -> None:
        self._session = session or Session()
        self.heartbeat_interval = heartbeat_interval
        self._run_lock = threading.Lock()
        self._closed = threading.Event()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        #: the resolved ``(host, port)`` (meaningful with ``port=0``)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def start(self) -> "WorkerServer":
        """Serve in a daemon thread (the in-process test entry point)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="repro-worker-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` (blocking)."""
        while not self._closed.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listening socket closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-worker-conn", daemon=True)
            thread.start()

    def close(self) -> None:
        """Stop accepting and unblock :meth:`serve_forever`."""
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"WorkerServer(address="
                f"{self.address[0]}:{self.address[1]})")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._closed.is_set():
                try:
                    frame = recv_frame(conn)
                except (ProtocolError, OSError):
                    return
                if frame is None:
                    return  # orderly disconnect
                try:
                    if not self._handle_frame(conn, frame):
                        return
                except OSError:
                    return  # peer went away mid-reply

    def _handle_frame(self, conn: socket.socket,
                      frame: Dict[str, Any]) -> bool:
        """Process one request; ``False`` ends the connection."""
        op = frame.get("op")
        if op == "ping":
            send_frame(conn, {"op": "pong", "ok": True})
            return True
        if op == "shutdown":
            send_frame(conn, {"op": "bye", "ok": True})
            self.close()
            return False
        if op == "run_batch" and isinstance(frame.get("items"), list):
            self._handle_run_batch(conn, frame)
            return True
        error = (f"unknown op {op!r}" if op != "run_batch"
                 else "run_batch items must be a list")
        send_frame(conn, {"op": "error", "ok": False, "error": error})
        return True

    def _send_point_done(self, conn: socket.socket,
                         payload: Dict[str, Any]) -> None:
        """Stream one per-point batch result (a test seam: failure
        injection overrides this to tear the connection mid-batch)."""
        send_frame(conn, payload)

    def _handle_run_batch(self, conn: socket.socket,
                          frame: Dict[str, Any]) -> None:
        """One trace-identity batch: stream ``point_done`` per item.

        The simulation thread drives every item through one session
        :class:`~repro.api.session.BatchRunner`; per-item outcomes
        (success or error, never an exception) flow back through a
        queue so the connection thread can interleave heartbeats with
        ``point_done`` frames while later points still simulate.
        """
        request_id = frame.get("id")
        items = frame["items"]
        outcomes: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()

        def simulate() -> None:
            with self._run_lock:
                runner = None
                for position, item in enumerate(items):
                    payload: Dict[str, Any] = {
                        "op": "point_done", "id": request_id,
                        "index": position}
                    try:
                        config = SimConfig.from_dict(item["config"])
                        use_cache = bool(item.get("use_cache", True))
                        if runner is None:
                            runner = self._session.batch_runner(
                                config.workload,
                                config.warmup + config.measure)
                        result = runner.run(config, use_cache=use_cache)
                    except Exception as exc:  # noqa: BLE001 - to peer
                        payload.update(
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}")
                    else:
                        payload.update(ok=True, stats=result.stats,
                                       wall_time_s=result.wall_time_s,
                                       source=result.source)
                    outcomes.put(payload)

        thread = threading.Thread(target=simulate,
                                  name="repro-worker-sim", daemon=True)
        thread.start()
        completed = 0
        while completed < len(items):
            try:
                payload = outcomes.get(timeout=self.heartbeat_interval)
            except queue_mod.Empty:
                if not thread.is_alive():
                    break  # defensive: sim thread died unreported
                send_frame(conn, {"op": "heartbeat", "id": request_id})
                continue
            self._send_point_done(conn, payload)
            completed += 1
        send_frame(conn, {"op": "done", "id": request_id, "ok": True,
                          "completed": completed})
