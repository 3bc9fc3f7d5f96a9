"""The Long Term Parking structure itself.

For the Non-Urgent-only design this is a plain FIFO queue — the paper's
headline simplification.  For modes that park Non-Ready instructions the
structure must release out of order, which the Appendix implements as a
ticket CAM.  Here that CAM's select is event-driven: the owner marks a
record *ready* at the moment it may wake (for LTP, when it parks with
no tickets or when the broadcast that clears its last ticket arrives;
for the data-ready parking policies, when it parks with its operands
ready or its last operand is written back), and the queue keeps the
ready records in two seq-ordered heaps (urgent and non-urgent), so
:meth:`LTPQueue.next_release` finds the oldest releasable record
without walking the queue.  Released records leave the heaps lazily,
when they surface at a heap top.

The queue keeps running counts of parked loads, stores and
register-destination instructions so Figure 7's utilization statistics
are O(1) per cycle.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Iterator, List, Optional, Tuple

from repro.core.params import cap

#: sentinel for "no boundary" (fewer than two long-latency ops in flight)
NO_BOUNDARY = 1 << 62


class LTPQueue:
    """Bounded parking structure with FIFO or out-of-order release."""

    def __init__(self, entries: Optional[int], fifo_only: bool) -> None:
        self.capacity = cap(entries)
        self.fifo_only = fifo_only
        self._entries: Deque = deque()
        self.parked_loads = 0
        self.parked_stores = 0
        self.parked_with_dst = 0
        self.total_parked = 0
        self.total_released = 0
        #: ``(seq, record)`` heaps of parked records with no tickets
        #: left, filled by :meth:`mark_ready`; released records are
        #: dropped lazily once they reach the top
        self._ready_urgent: List[Tuple[int, object]] = []
        self._ready_other: List[Tuple[int, object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, record) -> None:
        if self.full:
            raise RuntimeError("LTP overflow")
        self._entries.append(record)
        record.parked = True
        self.total_parked += 1
        if record.dyn.is_load:
            self.parked_loads += 1
        elif record.dyn.is_store:
            self.parked_stores += 1
        if record.dyn.has_dst:
            self.parked_with_dst += 1

    def head(self):
        return self._entries[0] if self._entries else None

    def mark_ready(self, record) -> None:
        """*record* is parked and may now wake.

        Called at most once per record: by
        :class:`~repro.policies.LTPPolicy` when the record parks
        ticket-free or its last ticket clears, and by the engines
        (through a data-ready policy's ``on_parked_ready``) when its
        last operand is ready.
        """
        heappush(self._ready_urgent if record.urgent else self._ready_other,
                 (record.seq, record))

    def next_release(self, force_seq: int,
                     boundary_seq: int = NO_BOUNDARY):
        """The record to release next, or ``None``.

        The head leaves first when its seq is *force_seq* (the parked
        ROB head; its ``forced_release`` is set); otherwise the oldest
        ready record that is urgent or older than *boundary_seq*.  A
        FIFO queue marks nothing ready and reads only its head, which
        is ready when it holds no tickets.  Only peeks: the record
        stays parked until :meth:`remove`.
        """
        entries = self._entries
        if not entries:
            return None
        head = entries[0]
        if head.seq == force_seq:
            head.forced_release = True
            return head
        if self.fifo_only:
            if head.tickets or not (head.urgent or head.seq < boundary_seq):
                return None
            return head
        urgent = self._ready_urgent
        other = self._ready_other
        while urgent and not urgent[0][1].parked:
            heappop(urgent)
        while other and not other[0][1].parked:
            heappop(other)
        if other and other[0][0] < boundary_seq and not (
                urgent and urgent[0][0] < other[0][0]):
            return other[0][1]
        return urgent[0][1] if urgent else None

    def remove(self, record) -> None:
        """Release *record* (must be present)."""
        if self.fifo_only:
            if not self._entries or self._entries[0] is not record:
                raise RuntimeError("FIFO LTP can only release its head")
            self._entries.popleft()
        else:
            try:
                self._entries.remove(record)
            except ValueError:
                raise RuntimeError("record not parked") from None
        record.parked = False
        self.total_released += 1
        if record.dyn.is_load:
            self.parked_loads -= 1
        elif record.dyn.is_store:
            self.parked_stores -= 1
        if record.dyn.has_dst:
            self.parked_with_dst -= 1
