"""The Long Term Parking structure itself.

For the Non-Urgent-only design this is a plain FIFO queue — the paper's
headline simplification.  For modes that park Non-Ready instructions the
structure must release out of order, which the Appendix implements as a
ticket CAM.  Here that CAM's select is event-driven: the controller
marks a record *ready* when it parks with no tickets or when the
broadcast that clears its last ticket arrives, and the queue keeps the
ready records in two seq-ordered heaps (urgent and non-urgent), so the
oldest releasable record is found without walking the queue.  Released
records leave the heaps lazily, when they surface at a heap top.

The generic :meth:`LTPQueue.candidates` scan remains for policies whose
wakeup predicate is not event-driven (it may read the cycle or an RNG).

The queue keeps running counts of parked loads, stores and
register-destination instructions so Figure 7's utilization statistics
are O(1) per cycle.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.core.params import cap


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

    def candidates(self, eligible: Callable[[object], bool],
                   limit: int) -> List[object]:
        """Return up to *limit* records passing *eligible*, oldest first.

        FIFO mode checks only the head (a queue cannot release from the
        middle); scan mode walks oldest-to-youngest, testing every
        record, for wakeup predicates that no event can index.
        """
        found: List[object] = []
        if self.fifo_only:
            head = self.head()
            if head is not None and eligible(head):
                found.append(head)
            return found
        for record in self._entries:
            if len(found) >= limit:
                break
            if eligible(record):
                found.append(record)
        return found

    def mark_ready(self, record) -> None:
        """*record* is parked and holds no tickets: it may wake.

        Called once per record, by the controller, when the record
        parks ticket-free or when its last ticket is cleared.
        """
        heappush(self._ready_urgent if record.urgent else self._ready_other,
                 (record.seq, record))

    def ready(self, limit: int, boundary_seq: int) -> List[object]:
        """Up to *limit* ready records, oldest first: every urgent one
        and the non-urgent ones older than *boundary_seq*."""
        urgent = self._ready_urgent
        other = self._ready_other
        taken: List[Tuple[int, object]] = []
        while len(taken) < limit:
            while urgent and not urgent[0][1].parked:
                heappop(urgent)
            while other and not other[0][1].parked:
                heappop(other)
            if other and other[0][0] < boundary_seq and not (
                    urgent and urgent[0][0] < other[0][0]):
                taken.append(heappop(other))
            elif urgent:
                taken.append(heappop(urgent))
            else:
                break
        # reading is not releasing: the entries go back
        for entry in taken:
            heappush(urgent if entry[1].urgent else other, entry)
        return [record for _, record in taken]

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
