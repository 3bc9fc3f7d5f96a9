"""A scriptable in-process executor for tests: ``MockExecutor``.

The conformance suite's fault-injection vehicle: it implements the full
:class:`~repro.api.exec.ExecutorBackend` submission protocol —
lifecycle events, bounded retries, graceful cancellation — but never
simulates anything.  Results carry fabricated statistics derived from
the configuration, and a *script* injects latency, failures and
worker drops per item and per attempt, so retry/exhaustion paths can
be exercised without real sockets or subprocesses.

The script maps a submitted item's **batch index** to a sequence of
per-attempt directives (the last directive repeats for any further
attempts):

* ``"ok"`` — succeed;
* ``"fail"`` / ``("fail", "message")`` — raise a scripted worker
  error (retried until ``max_retries`` is exhausted, then surfaced
  as :class:`~repro.api.exec.WorkerFailure`);
* ``"drop"`` — like ``fail``, but labelled as a lost worker;
* a number / ``("delay", seconds)`` — sleep that long, then succeed.

Every dispatch is recorded in :attr:`MockExecutor.dispatched`
(``(index, workload)`` in dispatch order), which is what dispatch-order
checks assert on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.exec import ExecutorBackend, SimFuture

#: one scripted attempt: a directive string, a delay, or a tagged pair
Directive = Any


class MockExecutor(ExecutorBackend):
    """Scriptable test double: full executor semantics, no simulation."""

    name = "mock"

    def __init__(self, script: Optional[Mapping[int, Any]] = None,
                 max_retries: int = 1, latency: float = 0.0) -> None:
        super().__init__(max_retries=max_retries)
        #: batch index -> directive or sequence of per-attempt directives
        self.script: Dict[int, Any] = dict(script or {})
        #: default per-dispatch sleep (seconds) for unscripted items
        self.latency = latency
        #: every dispatch, in order: ``(batch index, workload name)``
        self.dispatched: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _directive(self, index: int, attempt: int) -> Directive:
        entry = self.script.get(index)
        if entry is None:
            return "ok"
        if isinstance(entry, (str, int, float)) or (
                isinstance(entry, tuple) and entry
                and isinstance(entry[0], str)):
            return entry  # a single directive applies to every attempt
        directives = list(entry)
        if not directives:
            return "ok"
        return directives[min(attempt - 1, len(directives) - 1)]

    @staticmethod
    def _interpret(directive: Directive) -> Tuple[str, float, str]:
        """Normalise a directive to ``(action, delay, error message)``."""
        if isinstance(directive, (int, float)) and not isinstance(
                directive, bool):
            return "ok", float(directive), ""
        if isinstance(directive, (tuple, list)):
            tag = str(directive[0])
            if tag == "delay":
                return "ok", float(directive[1]), ""
            if tag in ("fail", "drop"):
                message = (str(directive[1]) if len(directive) > 1
                           else f"scripted {tag}")
                return tag, 0.0, message
            raise ValueError(f"unknown mock directive {directive!r}")
        action = str(directive)
        if action == "ok":
            return "ok", 0.0, ""
        if action == "fail":
            return "fail", 0.0, "scripted failure"
        if action == "drop":
            return "drop", 0.0, "scripted worker drop"
        raise ValueError(f"unknown mock directive {directive!r}")

    def _fabricate(self, future: SimFuture) -> Dict[str, Any]:
        config = future.config
        committed = int(config.measure)
        return {"committed": committed, "cycles": committed,
                "cpi": 1.0, "ipc": 1.0, "workload": config.workload,
                "category": "mock"}

    # ------------------------------------------------------------------
    def as_completed(self) -> Iterator[SimFuture]:
        self._cancelling = False
        while self._queue:
            future = self._queue.popleft()
            if not future.cancelled():
                self._start(future)
                while not self._attempt(future):
                    pass
            yield future

    def _attempt(self, future: SimFuture) -> bool:
        """Play one scripted attempt; ``True`` once *future* resolved."""
        self.dispatched.append((future.index, future.config.workload))
        action, delay, error = self._interpret(
            self._directive(future.index, future.attempts))
        delay = delay or self.latency
        if delay:
            time.sleep(delay)
        if action == "ok":
            self._finish(future, self._fabricate(future), delay)
            return True
        return not self._retry_or_fail(future, error)

    def __repr__(self) -> str:
        return (f"MockExecutor(script={self.script!r}, "
                f"max_retries={self.max_retries!r})")
