"""Oracle classification: exact Urgent / Non-Ready sets from the trace.

The limit study (Section 4) models "an oracle to predict long-latency
instructions" and "perfect instruction classification".  This module
computes that ground truth from a dynamic trace:

1. A functional cache walk (same hierarchy geometry and prefetcher as
   the timing model, no timing) labels every memory access with the
   level that services it.  Long latency = a load serviced beyond the
   L2, or an intrinsically long operation (divide / square root).
2. One reverse pass over the dataflow edges computes the *Urgent* set:
   every transitive ancestor of a long-latency instruction (and the
   long-latency instructions themselves, matching the UIT which holds
   their PCs).
3. One forward pass computes the *Non-Ready* set: every transitive
   descendant of a long-latency instruction whose root is within a
   ROB-sized window (an in-flight-ness approximation: an LL producer
   more than a window older has certainly completed).

Urgency can be queried per dynamic instruction or per static PC; the PC
granularity is what an unlimited UIT converges to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import OpClass
from repro.isa.trace import DynInst
from repro.memory.hierarchy import MemParams, MemoryHierarchy

LONG_FIXED_CLASSES = (OpClass.INT_DIV, OpClass.FP_DIV)


@dataclass
class OracleInfo:
    """Per-trace ground-truth classification."""

    levels: List[Optional[str]]
    long_latency: List[bool]
    urgent: List[bool]
    non_ready: List[bool]
    urgent_pcs: Set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.long_latency)

    def is_urgent(self, seq: int, pc: int, granularity: str = "pc") -> bool:
        if granularity == "dynamic":
            return self.urgent[seq]
        return pc in self.urgent_pcs

    def is_long_latency(self, seq: int) -> bool:
        return self.long_latency[seq]

    def pc_classes(self, trace: Sequence[DynInst]
                   ) -> Dict[int, Tuple[str, int]]:
        """Per static PC of *trace* (the trace this annotates), in PC
        order: its majority class (``"U"``/``"NU"`` + ``"NR"``/``"R"``,
        each by a strict majority of its executions) and its execution
        count."""
        votes: Dict[int, List[int]] = {}
        for dyn, urgent, non_ready in zip(trace, self.urgent,
                                          self.non_ready):
            entry = votes.setdefault(dyn.pc, [0, 0, 0])
            entry[0] += 1
            entry[1] += urgent
            entry[2] += non_ready
        classes = {}
        for pc in sorted(votes):
            count, urgent, non_ready = votes[pc]
            label = (("U" if urgent / count > 0.5 else "NU") + "+"
                     + ("NR" if non_ready / count > 0.5 else "R"))
            classes[pc] = (label, count)
        return classes

    def summary(self) -> dict:
        n = max(1, len(self.long_latency))
        return {
            "instructions": len(self.long_latency),
            "long_latency": sum(self.long_latency),
            "urgent_fraction": sum(self.urgent) / n,
            "non_ready_fraction": sum(self.non_ready) / n,
            "urgent_pcs": len(self.urgent_pcs),
        }


def annotate_trace(trace: Sequence[DynInst],
                   mem_params: Optional[MemParams] = None,
                   window: int = 256,
                   warm_regions: Sequence = ()) -> OracleInfo:
    """Compute :class:`OracleInfo` for *trace*.

    *window* approximates the in-flight horizon for Non-Ready
    classification; the ROB size is the natural choice.  *warm_regions*
    are (byte base, word count) spans pre-installed in the L2/L3,
    matching the timing runner's emulation of a paper-scale warmup.
    """
    params = mem_params or MemParams()
    hierarchy = MemoryHierarchy(params)
    for base, words in warm_regions:
        hierarchy.install(base, base + words * 8)
    n = len(trace)

    levels: List[Optional[str]] = [None] * n
    long_latency = [False] * n
    for i, dyn in enumerate(trace):
        if dyn.is_mem:
            levels[i] = hierarchy.functional_access(
                dyn.addr, is_store=dyn.is_store, pc=dyn.pc)
            if dyn.is_load and levels[i] in ("l3", "dram"):
                long_latency[i] = True
        elif dyn.op_class in LONG_FIXED_CLASSES:
            long_latency[i] = True

    # Urgent: reverse pass marks all ancestors of long-latency ops.  All
    # dataflow edges point from lower to higher seq, so one pass suffices.
    urgent = list(long_latency)
    for i in range(n - 1, -1, -1):
        if urgent[i]:
            for producer in trace[i].src_producers:
                if producer >= 0:
                    urgent[producer] = True

    # Non-Ready: forward pass propagating the youngest long-latency root.
    root = [-1] * n
    non_ready = [False] * n
    for i, dyn in enumerate(trace):
        best = -1
        for producer in dyn.src_producers:
            if producer < 0:
                continue
            candidate = producer if long_latency[producer] else root[producer]
            if candidate > best:
                best = candidate
        root[i] = best
        if best >= 0 and (i - best) <= window:
            non_ready[i] = True

    urgent_pcs = {trace[i].pc for i in range(n) if urgent[i]}
    return OracleInfo(levels=levels, long_latency=long_latency,
                      urgent=urgent, non_ready=non_ready,
                      urgent_pcs=urgent_pcs)
