"""Three-level cache hierarchy with MSHRs, stride prefetching and DRAM.

This composes the tag-only caches, the MSHR file, the L2 stride
prefetcher and the DRAM channel into the memory system of Table 1:

====  =======================  ========
L1    32 kB, 8-way, 64 B       4 cycles
L2    256 kB, 8-way, 64 B      12 cycles (+ stride prefetcher, degree 4)
L3    1 MB, 16-way, 64 B       36 cycles
DRAM  DDR3-1600-ish            ~190 cycles, bounded issue bandwidth
====  =======================  ========

Latencies are *load-to-use* totals (an L2 hit costs 12 cycles from the
data-cache access, matching how Table 1 quotes them).

The hierarchy also produces the two signals LTP consumes:

* ``tag_known_cycle`` — the early wakeup signal from the phased L2/L3 tag
  arrays or the DRAM controller (Section 3.2),
* ``long_latency`` — True when the access is serviced beyond the L2,
  which is the paper's working definition of a long-latency load.

Outstanding-request accounting integrates the number of in-flight
past-L2 demand requests over time so Figure 1b's "average outstanding
requests" can be reported exactly even when the pipeline skips idle
cycles.

Whether a demand access is rejected for want of an MSHR depends only
on whether its block is in the L1D, whether the block has an
outstanding fill and how many demand MSHRs are busy.  ``version``
counts the changes to that state (MSHR allocations and expiries, L1D
inserts), so a load rejected at the current version would be rejected
again: the kernel engine skips such retries and accounts for them
with :meth:`MemoryHierarchy.repeat_rejection`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.memory.cache import Cache, block_of, check_geometry
from repro.memory.dram import DRAMChannel, check_timing
from repro.memory.mshr import Fill, MSHRFile
from repro.memory.prefetcher import StridePrefetcher
from repro.util import ConfigError, check_fields

#: level ordering for comparisons
LEVELS = ("l1", "l2", "l3", "dram")


@dataclass
class MemParams:
    """Memory-system configuration (defaults reproduce Table 1)."""

    l1i_size: int = 32 * 1024
    l1i_ways: int = 8
    l1d_size: int = 32 * 1024
    l1d_ways: int = 8
    l1_latency: int = 4
    l2_size: int = 256 * 1024
    l2_ways: int = 8
    l2_latency: int = 12
    l3_size: int = 1024 * 1024
    l3_ways: int = 16
    l3_latency: int = 36
    dram_latency: int = 190
    dram_issue_interval: int = 6
    dram_wakeup_lead: int = 8
    #: early tag-hit signal arrives this many cycles before the data for
    #: L2/L3 hits (phased tag/data arrays, Section 3.2)
    tag_lead: int = 4
    mshrs: Optional[int] = 16
    prefetch_degree: int = 4
    prefetch_table: int = 256

    #: rules besides the declared types' (:func:`repro.util.check_fields`)
    _RULES = {"dram_wakeup_lead": 0, "tag_lead": 0, "prefetch_degree": 0}

    def validate(self) -> "MemParams":
        """Check every field's rule, each cache's sets, the DRAM timing
        and that latencies increase with level (``ValueError``)."""
        check_fields(self, "core.mem.")
        for name, size, ways in (
                ("'core.mem.l1i_size'", self.l1i_size, self.l1i_ways),
                ("'core.mem.l1d_size'", self.l1d_size, self.l1d_ways),
                ("'core.mem.l2_size'", self.l2_size, self.l2_ways),
                ("'core.mem.l3_size'", self.l3_size, self.l3_ways)):
            check_geometry(name, size, ways)
        check_timing(self.dram_latency, self.dram_issue_interval,
                     self.dram_wakeup_lead, prefix="core.mem.dram_")
        if not self.l1_latency < self.l2_latency < self.l3_latency:
            raise ConfigError("'core.mem' latencies must increase with "
                              "level (l1_latency < l2_latency < l3_latency)")
        return self


def memory_geometry(params: MemParams) -> Tuple[int, ...]:
    """The fields of *params* a functional pass reads: every cache's
    size and ways and the prefetcher's degree and table size.  Two
    parameter sets with equal geometry warm and annotate identically."""
    return (params.l1i_size, params.l1i_ways, params.l1d_size,
            params.l1d_ways, params.l2_size, params.l2_ways,
            params.l3_size, params.l3_ways, params.prefetch_degree,
            params.prefetch_table)


@dataclass
class AccessResult:
    """Timing outcome of one data access."""

    complete_cycle: int
    tag_known_cycle: int
    level: str
    merged: bool = False

    @property
    def long_latency(self) -> bool:
        """True when serviced beyond the L2 (the paper's LL definition)."""
        return self.level in ("l3", "dram")


@dataclass
class HierarchyStats:
    """Aggregated hierarchy statistics."""

    demand_accesses: int = 0
    level_hits: dict = field(default_factory=lambda: {lv: 0 for lv in LEVELS})
    mshr_merges: int = 0
    mshr_rejections: int = 0
    prefetches_issued: int = 0
    load_latency_sum: int = 0
    load_count: int = 0

    @property
    def average_load_latency(self) -> float:
        if self.load_count == 0:
            return 0.0
        return self.load_latency_sum / self.load_count


class MemoryHierarchy:
    """The full cache/DRAM stack used by the timing pipeline."""

    def __init__(self, params: Optional[MemParams] = None) -> None:
        self.params = (params or MemParams()).validate()
        p = self.params
        self.l1i = Cache("l1i", p.l1i_size, p.l1i_ways)
        self.l1d = Cache("l1d", p.l1d_size, p.l1d_ways)
        self.l2 = Cache("l2", p.l2_size, p.l2_ways)
        self.l3 = Cache("l3", p.l3_size, p.l3_ways)
        self.mshrs = MSHRFile(p.mshrs)
        self.prefetcher = StridePrefetcher(degree=p.prefetch_degree,
                                           table_size=p.prefetch_table)
        self.dram = DRAMChannel(latency=p.dram_latency,
                                issue_interval=p.dram_issue_interval,
                                wakeup_lead=p.dram_wakeup_lead)
        self.stats = HierarchyStats()
        # outstanding past-L2 demand requests: count + completion heap +
        # exact time integral
        self._outstanding = 0
        self._outstanding_events: List[int] = []
        self._outstanding_integral = 0
        self._last_advance_cycle = 0
        #: bumped whenever a rejected demand access could start to
        #: succeed: MSHR allocate/expire and every L1D insert
        self.version = 0

    def install(self, first: int, last: int, code: bool = False) -> None:
        """Insert the blocks holding bytes *first* to *last*, in order,
        into the L2 and L3 (and the L1I for *code*)."""
        caches = (self.l1i, self.l2, self.l3) if code else (self.l2, self.l3)
        for block in range(block_of(first), block_of(last) + 1):
            for cache in caches:
                cache.insert(block)

    def functional_copy(self, params: MemParams) -> "MemoryHierarchy":
        """A fresh hierarchy under *params* holding this one's functional
        state: cache contents, the prefetcher's table and ``version``.

        That is all a functional pass changes, so a copy of a warmed
        hierarchy equals one warmed afresh under *params*, which may
        differ from this one's in anything but :func:`memory_geometry`
        (MSHRs and latencies stay the copy's own).
        """
        copy = MemoryHierarchy(params)
        for level in ("l1i", "l1d", "l2", "l3"):
            getattr(copy, level).copy_from(getattr(self, level))
        copy.prefetcher.copy_from(self.prefetcher)
        copy.version = self.version
        return copy

    # ------------------------------------------------------------------
    # outstanding-request accounting
    # ------------------------------------------------------------------
    def advance(self, now: int) -> None:
        """Advance the outstanding-request integral to cycle *now*.

        Must be called with non-decreasing *now*; the pipeline calls it
        once per simulated cycle (including jumps over idle spans).
        """
        t = self._last_advance_cycle
        if now <= t:
            return
        events = self._outstanding_events
        while events and events[0] <= now:
            event_cycle = heapq.heappop(events)
            if event_cycle > t:
                self._outstanding_integral += self._outstanding * (event_cycle - t)
                t = event_cycle
            self._outstanding -= 1
        self._outstanding_integral += self._outstanding * (now - t)
        self._last_advance_cycle = now
        expiry = self.mshrs._expiry
        if expiry and expiry[0][0] <= now:
            self.mshrs.expire(now)
            self.version += 1

    def _track_outstanding(self, start: int, complete: int) -> None:
        self._outstanding += 1
        heapq.heappush(self._outstanding_events, complete)
        # `start` is always >= the last advance cycle because accesses are
        # issued at the current pipeline cycle.

    def outstanding_now(self) -> int:
        return self._outstanding

    def average_outstanding(self, total_cycles: Optional[int] = None) -> float:
        cycles = total_cycles if total_cycles else self._last_advance_cycle
        if cycles <= 0:
            return 0.0
        return self._outstanding_integral / cycles

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def access_data(self, addr: int, now: int, is_store: bool = False,
                    pc: int = 0) -> Optional[AccessResult]:
        """Access the data path at cycle *now*.

        Returns the timing result, or ``None`` when every MSHR is busy
        (the caller must retry the access on a later cycle, but need
        not before ``version`` moves).
        """
        p = self.params
        block = block_of(addr)
        self.stats.demand_accesses += 1

        # An outstanding fill wins over a tag "hit": blocks are inserted
        # at request time, so the tag array can claim a block whose data
        # is still in flight — such accesses must merge with the fill.
        fill = self.mshrs.merge(block)
        if fill is not None:
            self.stats.mshr_merges += 1
            self.stats.level_hits[fill.level] += 1
            self.l1d.insert(block)
            self.version += 1
            complete = max(fill.complete_cycle, now + p.l1_latency)
            tag_known = min(fill.tag_known_cycle, complete)
            result = AccessResult(complete, tag_known, fill.level,
                                  merged=True)
            return self._finish_load_stat(result, now)

        if self.l1d.lookup(block):
            self.stats.level_hits["l1"] += 1
            complete = now + p.l1_latency
            return self._finish_load_stat(
                AccessResult(complete, complete, "l1"), now)

        if not self.mshrs.can_allocate():
            self.stats.mshr_rejections += 1
            self.mshrs.note_rejection()
            return None

        # L1 miss path: train the prefetcher on the L1-miss stream.
        self._issue_prefetches(pc, addr, now)

        if self.l2.lookup(block):
            self.stats.level_hits["l2"] += 1
            complete = now + p.l2_latency
            tag_known = complete - min(p.tag_lead, p.l2_latency - 1)
            level = "l2"
        elif self.l3.lookup(block):
            self.stats.level_hits["l3"] += 1
            complete = now + p.l3_latency
            tag_known = complete - min(p.tag_lead, p.l3_latency - 1)
            level = "l3"
            self.l2.insert(block)
        else:
            self.stats.level_hits["dram"] += 1
            timing = self.dram.schedule(now + p.l3_latency)
            complete = timing.complete_cycle
            tag_known = timing.tag_known_cycle
            level = "dram"
            self.l3.insert(block)
            self.l2.insert(block)

        self.l1d.insert(block)
        self.mshrs.allocate(Fill(block, complete, tag_known, level))
        self.version += 1
        if level in ("l3", "dram"):
            self._track_outstanding(now, complete)
        return self._finish_load_stat(
            AccessResult(complete, tag_known, level), now)

    def repeat_rejection(self, times: int = 1) -> None:
        """Count *times* retries of an access rejected at the current
        ``version`` exactly as :meth:`access_data` would: each an L1D
        miss and an MSHR-full rejection."""
        self.stats.demand_accesses += times
        self.stats.mshr_rejections += times
        self.mshrs.full_rejections += times
        self.l1d.misses += times

    def _finish_load_stat(self, result: AccessResult,
                          now: int) -> AccessResult:
        self.stats.load_latency_sum += result.complete_cycle - now
        self.stats.load_count += 1
        return result

    def _issue_prefetches(self, pc: int, addr: int, now: int) -> None:
        blocks = self.prefetcher.observe(pc, addr)
        if not blocks:
            return
        p = self.params
        for block in blocks:
            if self.l2.probe(block) or self.mshrs.outstanding(block):
                continue
            if self.l3.probe(block):
                complete = now + p.l3_latency
                level = "l3"
            else:
                timing = self.dram.schedule(now + p.l3_latency)
                complete = timing.complete_cycle
                level = "dram"
                self.l3.insert(block)
            self.l2.insert(block)
            self.mshrs.allocate(Fill(block, complete, complete, level,
                                     is_prefetch=True))
            self.stats.prefetches_issued += 1

    def commit_store(self, addr: int) -> None:
        """Architectural store commit: install the block (write-allocate).

        Store fill timing does not stall commit in this model; the store
        buffer hides it (documented simplification).
        """
        block = block_of(addr)
        if not self.l1d.probe(block):
            self.l1d.insert(block)
            self.version += 1
            if not self.l2.probe(block):
                self.l2.insert(block)
                if not self.l3.probe(block):
                    self.l3.insert(block)

    # ------------------------------------------------------------------
    # instruction path
    # ------------------------------------------------------------------
    def access_inst(self, addr: int, now: int) -> AccessResult:
        """Fetch-side access; misses bypass the MSHR limit (own buffer)."""
        p = self.params
        block = block_of(addr)
        if self.l1i.lookup(block):
            complete = now + 1  # fetch pipeline already covers L1I latency
            return AccessResult(complete, complete, "l1")
        if self.l2.lookup(block):
            complete = now + p.l2_latency
            level = "l2"
        elif self.l3.lookup(block):
            complete = now + p.l3_latency
            level = "l3"
            self.l2.insert(block)
        else:
            timing = self.dram.schedule(now + p.l3_latency)
            complete = timing.complete_cycle
            level = "dram"
            self.l3.insert(block)
            self.l2.insert(block)
        self.l1i.insert(block)
        return AccessResult(complete, complete, level)

    # ------------------------------------------------------------------
    # functional (timing-free) mode for oracle pre-passes
    # ------------------------------------------------------------------
    def functional_access(self, addr: int, is_store: bool = False,
                          pc: int = 0) -> str:
        """Touch the hierarchy with no timing; return the hit level.

        Used by the oracle pre-pass to label each dynamic load with the
        level that services it, including prefetcher effects.
        """
        block = block_of(addr)
        if self.l1d.lookup(block):
            return "l1"
        blocks = self.prefetcher.observe(pc, addr)
        for pf_block in blocks:
            if not self.l2.probe(pf_block):
                self.l2.insert(pf_block)
                if not self.l3.probe(pf_block):
                    self.l3.insert(pf_block)
        if self.l2.lookup(block):
            level = "l2"
        elif self.l3.lookup(block):
            level = "l3"
            self.l2.insert(block)
        else:
            level = "dram"
            self.l3.insert(block)
            self.l2.insert(block)
        self.l1d.insert(block)
        self.version += 1
        return level
