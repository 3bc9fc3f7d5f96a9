"""Per-dynamic-instruction bookkeeping record used by the pipeline.

One :class:`InFlightInst` exists per dynamic instruction from rename to
commit.  Dataflow is tracked by producer/consumer links between records
(the rename result), physical registers purely as occupancy, so the
record carries readiness counters rather than register indices.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.trace import DynInst

# lifecycle states are implicit in flags:
#   parked      -> waiting in LTP (no IQ/RF yet)
#   in_iq       -> dispatched, waiting/ready in the IQ
#   issued      -> selected for execution, completion event pending
#   done        -> executed; eligible for commit when at ROB head

#: shared immutable defaults so constructing a record (which happens on
#: every rename *attempt*, including retried ones) allocates nothing.
#: The pipeline swaps ``consumers`` for a real list on first append;
#: the ticket tracker assigns a real set on inheritance.
_NO_CONSUMERS: Tuple = ()
_NO_TICKETS: frozenset = frozenset()


class InFlightInst:
    """Timing-model state for one dynamic instruction."""

    __slots__ = (
        "dyn", "seq",
        "is_load", "is_store", "has_dst", "fu_group", "nonpipelined",
        "waiting_on", "consumers",
        "in_iq", "issued", "done",
        "completion_cycle",
        "parked", "urgent", "non_ready", "predicted_ll", "actual_ll",
        "ll_listed",
        "tickets", "own_ticket",
        "rf_class", "rf_allocated", "lq_allocated", "sq_allocated",
        "rename_cycle", "release_cycle", "issue_cycle",
        "mem_level", "producer_records",
        "forced_release", "park_reason", "rejected_at",
    )

    def __init__(self, dyn: DynInst) -> None:
        # one record is built per rename *attempt* (retries included),
        # so this constructor is hot: constant defaults are grouped into
        # chained stores and the pre-decoded metadata the per-cycle
        # paths touch is mirrored so the hot loop never takes the extra
        # hop through ``dyn``
        self.dyn = dyn
        self.seq = dyn.seq
        self.is_load = dyn.is_load
        self.is_store = dyn.is_store
        self.has_dst = dyn.has_dst
        self.fu_group = dyn.fu_group
        self.nonpipelined = dyn.nonpipelined
        self.rf_class: Optional[str] = dyn.rf_class
        self.waiting_on = 0
        self.consumers = _NO_CONSUMERS  # list on first append (see pipeline)
        self.tickets = _NO_TICKETS  # real set assigned by TicketTracker
        self.producer_records: Tuple[Optional["InFlightInst"], ...] = ()
        self.in_iq = self.issued = self.done = self.parked = False
        self.urgent = self.non_ready = False
        self.predicted_ll = self.actual_ll = self.ll_listed = False
        self.rf_allocated = self.lq_allocated = self.sq_allocated = False
        self.forced_release = False
        #: hierarchy ``version`` at this load's last MSHR rejection
        self.rejected_at = -1
        self.completion_cycle = self.own_ticket = None
        self.rename_cycle = self.release_cycle = self.issue_cycle = None
        self.mem_level = self.park_reason = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        flags = []
        if self.parked:
            flags.append("parked")
        if self.in_iq:
            flags.append("iq")
        if self.issued:
            flags.append("issued")
        if self.done:
            flags.append("done")
        state = ",".join(flags) or "renamed"
        return f"<InFlight #{self.seq} {self.dyn.inst.opcode} [{state}]>"
