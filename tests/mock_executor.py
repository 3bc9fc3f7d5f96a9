"""``MockExecutor``: a scriptable executor for tests that never simulates.

It runs the full :class:`~repro.api.exec.ExecutorBackend` protocol
(lifecycle events, bounded retries, graceful cancellation) on
fabricated statistics.  Its *script* maps a batch index to ``"ok"`` or
``"fail"`` for every attempt, or to a sequence with one directive per
attempt (the last repeats).  :attr:`MockExecutor.dispatched` records
every dispatch as ``(index, workload)``.  The conformance suite and
``scripts/ci_sweep.py inspect-check`` use it; pytest does not collect
this file (its name does not start with ``test_``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.exec import ExecutorBackend, SimFuture


class MockExecutor(ExecutorBackend):
    """Scriptable test double: full executor semantics, no simulation."""

    name = "mock"

    def __init__(self, script: Optional[Mapping[int, Any]] = None,
                 max_retries: int = 1) -> None:
        super().__init__(max_retries=max_retries)
        self.script: Dict[int, Any] = dict(script or {})
        self.dispatched: List[Tuple[int, str]] = []

    def _directive(self, index: int, attempt: int) -> str:
        entry = self.script.get(index, "ok")
        if not isinstance(entry, str):
            entry = entry[min(attempt, len(entry)) - 1]
        if entry not in ("ok", "fail"):
            raise ValueError(f"unknown mock directive {entry!r}")
        return entry

    def _fabricate(self, future: SimFuture) -> Dict[str, Any]:
        committed = int(future.config.measure)
        return {"committed": committed, "cycles": committed,
                "cpi": 1.0, "ipc": 1.0,
                "workload": future.config.workload, "category": "mock"}

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
        if self._directive(future.index, future.attempts) == "ok":
            self._finish(future, self._fabricate(future), 0.0)
            return True
        return not self._retry_or_fail(future, "scripted failure")
