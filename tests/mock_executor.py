"""``MockExecutor``: a scriptable executor for tests that never simulates.

It runs the full :class:`~repro.api.exec.ExecutorBackend` protocol
(``run()``, lifecycle events, bounded retries) on fabricated
statistics.  Its *script* maps a batch index to ``"ok"`` or
``"fail"`` for every attempt, or to a sequence with one directive per
attempt (the last repeats).  :attr:`MockExecutor.dispatched` records
every dispatch as ``(index, workload)``.  The conformance suite and
``scripts/ci_sweep.py inspect-check`` use it; pytest does not collect
this file (its name does not start with ``test_``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.exec import ExecutorBackend


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

    def _fabricate(self, point) -> Dict[str, Any]:
        committed = int(point.config.measure)
        return {"committed": committed, "cycles": committed,
                "cpi": 1.0, "ipc": 1.0,
                "workload": point.config.workload, "category": "mock"}

    def run(self, session, items, emit=None):
        for point in self._submitted(items, emit):
            self._start(point, emit)
            outcome = None
            while outcome is None:
                outcome = self._attempt(point, emit)
            yield outcome

    def _attempt(self, point, emit):
        """Play one scripted attempt: its outcome, or ``None`` to
        retry."""
        self.dispatched.append((point.index, point.config.workload))
        if self._directive(point.index, point.attempts) == "ok":
            return self._finish(point, self._fabricate(point), 0.0, emit)
        return self._retry_or_fail(point, "scripted failure", emit)
