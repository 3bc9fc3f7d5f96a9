"""Urgency classification: online (UIT + backward analysis) and oracle.

The online classifier implements Section 5.2's Iterative Backward
Dependency Analysis:

1. When a long-latency load commits, its PC enters the UIT.
2. The RAT is extended with the *PC of the producer* of each
   architectural register.  When an instruction that hits in the UIT is
   renamed, its sources' producer PCs are inserted into the UIT, so the
   Urgent property crawls backwards through the slice one step per
   execution of the consuming instruction.
3. Violating stores are inserted on memory-order violations
   (Section 5.3).

The oracle classifier answers from a trace pre-pass
(:mod:`repro.ltp.oracle`) at either PC or dynamic granularity.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.inflight import InFlightInst
from repro.isa.trace import DynInst
from repro.ltp.oracle import OracleInfo
from repro.ltp.uit import UrgentInstructionTable


class OnlineClassifier:
    """UIT-based urgency learning, as implementable in hardware."""

    def __init__(self, uit_size: Optional[int] = 256, uit_ways: int = 4) -> None:
        self.uit = UrgentInstructionTable(size=uit_size, ways=uit_ways)
        # RAT extension: architectural register -> producer PC
        self._producer_pc: Dict[str, int] = {}

    def observe_rename(self, record: InFlightInst) -> bool:
        """Classify *record* and run one backward-propagation step.

        Returns True when the instruction is Urgent.  Runs once per
        rename *attempt*, so the UIT lookup is inlined here (counter and
        LRU-stamp updates identical to :meth:`UrgentInstructionTable.
        contains`) instead of paying a call per attempt.
        """
        dyn = record.dyn
        pc = dyn.pc
        uit = self.uit
        uit.lookups += 1
        if uit.size is None:
            urgent = pc in uit._unlimited
        else:
            entry = uit._sets[pc % uit.num_sets]
            if pc in entry:
                uit._stamp += 1
                entry[pc] = uit._stamp
                urgent = True
            else:
                urgent = False
        if urgent:
            producer_pcs = self._producer_pc
            uit_insert = uit.insert
            for reg in dyn.inst.srcs:
                producer_pc = producer_pcs.get(reg)
                if producer_pc is not None:
                    uit_insert(producer_pc)
        if dyn.has_dst:
            self._producer_pc[dyn.inst.dst] = pc
        return urgent

    def stall_marks(self, dyn) -> tuple:
        """``(guard, lookups, inserts)`` around a rename attempt of
        *dyn*.  While the UIT's fills and *dyn*'s producer-PC entry
        hold, a repeat classifies the same and moves only the counters
        (LRU restamps it re-applies in order)."""
        uit = self.uit
        return ((uit.fills, self._producer_pc.get(dyn.inst.dst)),
                uit.lookups, uit.inserts)

    def repeat_stall(self, lookups: int, inserts: int) -> None:
        """Charge the lookups and inserts of repeated attempts."""
        uit = self.uit
        uit.lookups += lookups
        uit.inserts += inserts

    def on_long_latency_commit(self, pc: int) -> None:
        self.uit.insert(pc)

    def on_violation(self, store_pc: int) -> None:
        self.uit.insert(store_pc)

    def warm(self, warmup_slice: Sequence[DynInst],
             long_latency_flags: Sequence) -> None:
        """Pre-train from a warmup trace slice and its long-latency
        flags, in program order, mimicking rename+commit during cache
        warmup."""
        uit = self.uit
        producer_pcs = self._producer_pc
        for dyn, is_ll in zip(warmup_slice, long_latency_flags):
            pc = dyn.pc
            inst = dyn.inst
            if uit.contains(pc):
                for reg in inst.srcs:
                    producer_pc = producer_pcs.get(reg)
                    if producer_pc is not None:
                        uit.insert(producer_pc)
            if inst.dst is not None:
                producer_pcs[inst.dst] = pc
            if is_ll:
                uit.insert(pc)


class OracleClassifier:
    """Perfect urgency knowledge from the trace pre-pass."""

    def __init__(self, oracle: OracleInfo, granularity: str = "pc") -> None:
        if granularity not in ("pc", "dynamic"):
            raise ValueError("granularity must be 'pc' or 'dynamic'")
        self.oracle = oracle
        self.granularity = granularity
        self.lookups = 0

    def observe_rename(self, record: InFlightInst) -> bool:
        self.lookups += 1
        return self.oracle.is_urgent(record.seq, record.dyn.pc,
                                     self.granularity)

    def stall_marks(self, dyn) -> tuple:
        """No guard and no inserts: an oracle lookup is a pure read."""
        return (None, self.lookups, 0)

    def repeat_stall(self, lookups: int, inserts: int) -> None:
        self.lookups += lookups

    def on_long_latency_commit(self, pc: int) -> None:
        pass  # oracle already knows

    def on_violation(self, store_pc: int) -> None:
        pass
