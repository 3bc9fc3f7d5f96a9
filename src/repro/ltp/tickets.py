"""Ticket tracking for Non-Ready instructions (Appendix A).

A predicted long-latency instruction allocates a *ticket*.  Descendants
inherit the union of their sources' tickets through the RAT; an
instruction with a non-empty ticket vector is Non-Ready.  When the
long-latency instruction's data is about to return (early tag-hit
signal), its ticket is broadcast and cleared everywhere, and the ticket
id is recycled.

``capacity=None`` models the unlimited case; Figure 11 sweeps the
capacity down to 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.inflight import _NO_TICKETS


class TicketPool:
    """Bounded pool of ticket identifiers with recycling."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._next = 0
        self._free: List[int] = []
        self._live: Set[int] = set()
        self.allocated = 0
        self.exhausted = 0

    def allocate(self) -> Optional[int]:
        """Return a ticket id, or None when the pool is exhausted."""
        if self._free:
            ticket = self._free.pop()
        elif self.capacity is None or self._next < self.capacity:
            ticket = self._next
            self._next += 1
        else:
            self.exhausted += 1
            return None
        self._live.add(ticket)
        self.allocated += 1
        return ticket

    def release(self, ticket: int) -> None:
        if ticket not in self._live:
            raise RuntimeError(f"double release of ticket {ticket}")
        self._live.remove(ticket)
        self._free.append(ticket)

    @property
    def live_count(self) -> int:
        return len(self._live)


class TicketTracker:
    """Maps live tickets to the instruction records that hold them."""

    def __init__(self, pool: TicketPool) -> None:
        self.pool = pool
        self._holders: Dict[int, List[object]] = {}

    def grant(self, owner_record) -> Optional[int]:
        """Allocate a ticket owned by *owner_record* (a predicted-LL op)."""
        ticket = self.pool.allocate()
        if ticket is not None:
            self._holders[ticket] = []
            owner_record.own_ticket = ticket
        return ticket

    def inherit(self, record, producer_records) -> None:
        """Give *record* the union of its producers' live tickets (the
        shared empty set when they hold none)."""
        tickets = _NO_TICKETS
        for producer in producer_records:
            if producer is None or producer.done:
                continue
            own = producer.own_ticket
            if own is None and not producer.tickets:
                continue
            if tickets is _NO_TICKETS:
                tickets = set()
            if own is not None:
                tickets.add(own)
            tickets |= producer.tickets
        for ticket in tickets:
            holders = self._holders.get(ticket)
            if holders is not None:
                holders.append(record)
        record.tickets = tickets

    def clear(self, ticket: int) -> List[object]:
        """Broadcast-clear *ticket*; return the records that held it."""
        holders = self._holders.pop(ticket, [])
        for record in holders:
            record.tickets.discard(ticket)
        self.pool.release(ticket)
        return holders
