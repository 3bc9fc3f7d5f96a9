"""Issue queue: wakeup/select with oldest-first scheduling.

Entries are allocated at dispatch and freed at issue (paper Figure 4).
Readiness is event driven: the pipeline calls :meth:`wake` when a
producer completes, and ready entries sit in a min-heap keyed by sequence
number so selection is oldest-first — the common heuristic the paper's
IQ discussion assumes.

``occupancy`` is a plain public counter (read every simulated cycle by
the statistics accumulator — keep it attribute-cheap).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.core.params import cap

_heappush = heapq.heappush
_heappop = heapq.heappop


class IssueQueue:
    """Bounded issue queue with event-driven wakeup and oldest-first select."""

    def __init__(self, size: Optional[int]) -> None:
        self.capacity = cap(size)
        self.occupancy = 0
        self._ready_heap: List[tuple] = []

    def __len__(self) -> int:
        return self.occupancy

    @property
    def full(self) -> bool:
        return self.occupancy >= self.capacity

    def insert(self, record) -> None:
        """Dispatch *record* into the IQ; it must carry wait bookkeeping."""
        if self.occupancy >= self.capacity:
            raise RuntimeError("IQ overflow")
        self.occupancy += 1
        record.in_iq = True
        if record.waiting_on == 0:
            _heappush(self._ready_heap, (record.seq, record))

    def mark_ready(self, record) -> None:
        _heappush(self._ready_heap, (record.seq, record))

    def wake(self, record) -> None:
        """Producer completed for *record*; enqueue if fully ready."""
        if record.waiting_on == 0 and record.in_iq and not record.issued:
            self.mark_ready(record)

    def select(self, can_issue: Callable[[object], bool],
               max_issues: int) -> List[object]:
        """Pick up to *max_issues* ready records, oldest first.

        *can_issue* implements structural constraints (FU availability,
        load/store port and ordering checks).  Records rejected by
        *can_issue* are kept for a later cycle.
        """
        picked: List[object] = []
        deferred: List[tuple] = []
        heap = self._ready_heap
        while heap and len(picked) < max_issues:
            item = _heappop(heap)
            record = item[1]
            if record.issued or not record.in_iq:
                continue  # stale heap entry
            if record.waiting_on != 0:
                continue  # stale: got re-blocked (should not happen)
            if can_issue(record):
                picked.append(record)
                record.issued = True
                record.in_iq = False
                self.occupancy -= 1
            else:
                deferred.append(item)
        for item in deferred:
            _heappush(heap, item)
        return picked

    def has_ready(self) -> bool:
        """True if some entry could issue this cycle (ignoring FUs)."""
        heap = self._ready_heap
        while heap:
            record = heap[0][1]
            if record.issued or not record.in_iq:
                _heappop(heap)
                continue
            return True
        return False
