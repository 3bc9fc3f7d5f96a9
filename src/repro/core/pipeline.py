"""Trace-driven cycle model of the Table 1 out-of-order core.

The pipeline consumes a dynamic trace (true dependences, addresses and
branch outcomes from the functional executor) and models, cycle by
cycle:

* an 8-wide front end with a fixed decode depth, gshare direction
  prediction and L1I fetch stalls; mispredicts block fetch until the
  branch executes, plus a refill penalty (the standard trace-driven
  approximation — no wrong-path instructions exist in a trace),
* rename with in-order allocation of ROB / IQ / physical registers /
  LQ / SQ — or policy-directed parking, which defers the IQ and
  register (and optionally LQ/SQ) allocations exactly as Figure 5
  describes.  *When* resources are claimed is owned by a pluggable
  :class:`repro.policies.AllocationPolicy` (LTP is the default policy,
  one parking policy among the registered alternatives),
* oldest-first issue of up to 6 instructions per cycle over FU pools,
  two-phase loads (AGU + cache access) with store-to-load forwarding,
  memory-dependence prediction and violation penalties,
* event-driven writeback/wakeup, and
* 8-wide in-order commit, which frees registers (previous mapping) and
  LQ/SQ entries, and trains the UIT on long-latency loads.

This is the reference engine (``engine="object"``): the readable model
every differential test is defined against.  Points that name no engine
run the bit-identical columnar :class:`repro.core.kernel.KernelPipeline`,
which subclasses this one.

Idle spans (every unit waiting on a future event) are jumped over in one
step; all time-integrated statistics account for the jump width, so
results are identical to cycle-by-cycle execution, just faster.  It is
the only shortcut here: stalled rename attempts and MSHR-rejected loads
retry every cycle, the plain form the kernel's stall-span jump and
MSHR-retry gating are checked against (see :mod:`repro.core.kernel`).

Performance-sensitive invariants of the main loop (see README.md):

* Per-instruction metadata (FU group, non-pipelined flag, load/store
  flags, destination register class, code address) is **pre-decoded**
  on :class:`DynInst` at trace build time and mirrored onto
  :class:`InFlightInst` at rename; the hot loop performs no opcode
  table lookups or property calls.
* Execution latencies are resolved to a per-``OpClass`` table once at
  pipeline construction.
* Occupancy statistics are integrated by direct writes to the bound
  :class:`Occupancy` accumulators — no per-cycle dict building.
* The trace is consumed by list index (no iterator protocol / ``next``
  exception handling in the fetch path).
* Stage order inside :meth:`_tick` (writeback, commit, parked release,
  rename, issue, fetch) and every statistics update are load-bearing:
  results must stay bit-identical to strict cycle-by-cycle execution.
* The allocation policy is driven through its hook methods
  (``policy.observe_rename`` / ``policy.may_allocate`` / release and
  completion hooks); the default ``ltp`` policy holds the whole LTP
  mechanism, so each hook is one call with no forwarding frame.
"""

from __future__ import annotations

import gc as _gc
import heapq
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.branch import GsharePredictor
from repro.core.inflight import InFlightInst
from repro.core.iq import IssueQueue
from repro.core.lsq import LoadStoreQueues
from repro.core.memdep import MemDepPredictor
from repro.core.params import CoreParams
from repro.core.regfile import RegisterFile
from repro.core.rob import ROB
from repro.core.stats import SimStats
from repro.isa.instructions import OpClass
from repro.isa.trace import CODE_BASE, INST_BYTES, DynInst
from repro.ltp.config import LTPConfig
from repro.ltp.queue import NO_BOUNDARY
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import DEFAULT_POLICY, AllocationPolicy, build_policy

__all__ = ["CODE_BASE", "INST_BYTES", "Pipeline", "SimulationDeadlock",
           "simulate"]

_EV_COMPLETE = 0
_EV_TAG = 1

_WORD_MASK = ~7

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationDeadlock(RuntimeError):
    """The pipeline can make no progress and no future event exists."""


class Pipeline:
    """One simulated core running one dynamic trace."""

    def __init__(self, trace: Sequence[DynInst],
                 params: Optional[CoreParams] = None,
                 ltp: Optional[LTPConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 branch_predictor: Optional[GsharePredictor] = None,
                 warm_code: bool = True,
                 allow_skip: bool = True,
                 policy: Union[AllocationPolicy, str, None] = None) -> None:
        self.params = (params or CoreParams()).validate()
        self.ltp_config = (ltp or LTPConfig(enabled=False)).validate()
        self.hierarchy = hierarchy or MemoryHierarchy(self.params.mem)
        self.bpred = branch_predictor or GsharePredictor()
        dram_latency = self.params.mem.dram_latency
        if policy is None or isinstance(policy, str):
            policy = build_policy(policy or DEFAULT_POLICY,
                                  self.ltp_config, dram_latency)
        self.policy = policy
        policy.attach_memory(self.hierarchy)
        self.stats = SimStats()
        #: False forces strict cycle-by-cycle execution (used by tests to
        #: verify that idle-span jumping never changes results)
        self.allow_skip = allow_skip

        reserve = policy.release_reserve
        self.rob = ROB(self.params.rob_size)
        self.iq = IssueQueue(self.params.iq_size)
        self.regfile = RegisterFile(self.params.int_regs,
                                    self.params.fp_regs, reserve=reserve)
        self.lsq = LoadStoreQueues(self.params.lq_size, self.params.sq_size,
                                   reserve=reserve)
        self.memdep = MemDepPredictor()

        if warm_code and len(trace):
            # kernels are tiny; pre-warm the instruction path so short
            # traces are not dominated by a one-off cold L1I DRAM fill
            max_pc = max(dyn.pc for dyn in trace)
            self.hierarchy.install(CODE_BASE, CODE_BASE + max_pc * INST_BYTES,
                                   code=True)

        self._trace_seq: Sequence[DynInst] = trace
        self._trace_idx = 0
        self._trace_len = len(trace)

        self.cycle = 0
        self._events: List[tuple] = []          # (cycle, seq, kind, record)
        self._frontend: List[Tuple[int, DynInst]] = []  # FIFO via index
        self._frontend_head = 0
        self._frontend_cap = self.params.fetch_width * (
            self.params.frontend_depth + 2)
        self._fetch_stall_until = 0
        self._fetch_blocked_on: Optional[int] = None  # seq of branch
        self._commit_stall_until = 0
        self._scoreboard: Dict[int, InFlightInst] = {}
        self._ll_seqs: List[int] = []           # sorted in-flight LL seqs
        self._open_loads: Dict[int, List[InFlightInst]] = {}
        self._parked_store_pcs: Dict[int, int] = {}
        self._fu_busy_until: Dict[str, int] = {}
        self._fu_used: Dict[str, int] = {}      # scratch, reset per issue
        self._last_commit_cycle = 0

        # hot-path constants, resolved once
        latencies = self.params.latencies
        default_latency = latencies["int_alu"]
        self._lat_by_class: Dict[OpClass, int] = {
            op: latencies.get(op.value, default_latency) for op in OpClass}
        self._lat_agu = latencies["agu"]
        self._lat_store = latencies["store"]
        self._lat_forward = latencies["forward"]
        occ = self.stats.occupancies
        self._occ_rob = occ["rob"]
        self._occ_iq = occ["iq"]
        self._occ_lq = occ["lq"]
        self._occ_sq = occ["sq"]
        self._occ_rf_int = occ["rf_int"]
        self._occ_rf_fp = occ["rf_fp"]
        self._occ_ltp = occ["ltp"]
        self._occ_ltp_regs = occ["ltp_regs"]
        self._occ_ltp_loads = occ["ltp_loads"]
        self._occ_ltp_stores = occ["ltp_stores"]
        # direct bindings into collaborators whose identity is fixed for
        # the pipeline's lifetime (the objects mutate in place); reserves
        # are likewise fixed after construction.
        self._rob_entries = self.rob._entries
        self._rf_free = self.regfile._free
        self._rf_need = 1 + self.regfile.reserve
        self._lsq_need = 1 + self.lsq.reserve
        self._monitor = policy.monitor
        self._monitor_off = self._monitor.mode == "off"
        self._monitor_auto = self._monitor.mode == "auto"
        self._ltp_entries = policy.queue._entries
        self._release_ports = policy.ports
        # the park-path flags are immutable per run; snapshot them so
        # the parked-allocation path performs no property calls
        self._park_loads = policy.park_loads
        self._park_stores = policy.park_stores
        self._defer_registers = policy.defer_registers
        self._rf_cap_int = self.regfile._capacity["int"]
        self._rf_cap_fp = self.regfile._capacity["fp"]

    # ==================================================================
    # public API
    # ==================================================================
    def run(self) -> SimStats:
        """Run the trace to completion and return the statistics.

        The cyclic collector is suspended for the duration: the model
        allocates one record per rename attempt, so mid-run
        generational scans would rescan the live window without
        reclaiming anything.  Records form no cycles (writeback drops
        the consumer links) and die by reference count.
        """
        tick = self._tick
        finished = self._finished
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        try:
            while not finished():
                tick()
        finally:
            if gc_enabled:
                _gc.enable()
        self.stats.cycles = self.cycle
        self._export_activity()
        return self.stats

    # ==================================================================
    # trace / frontend plumbing
    # ==================================================================
    def _frontend_len(self) -> int:
        return len(self._frontend) - self._frontend_head

    def _finished(self) -> bool:
        return (self._trace_idx >= self._trace_len
                and self._frontend_head >= len(self._frontend)
                and self.rob.empty)

    # ==================================================================
    # main loop
    # ==================================================================
    def _tick(self) -> None:
        now = self.cycle
        self.hierarchy.advance(now)

        events = self._events
        progress = self._writeback(now) if (events and events[0][0] <= now) \
            else False
        progress |= self._commit(now)
        if self._ltp_entries:
            released, release_pending = self._ltp_release(now)
            progress |= released > 0
        else:
            release_pending = False
        progress |= self._rename(now)
        progress |= self._issue(now)
        progress |= self._fetch(now)

        # Idle jump: with nothing ready to issue or rename and no event
        # due next cycle, every unit waits on a future event, so the
        # cycles up to it are skipped in one step.
        imminent = (progress
                    or release_pending
                    or (events and events[0][0] <= now + 1)
                    or self.iq.has_ready())
        if not imminent:
            frontend = self._frontend
            head_idx = self._frontend_head
            if head_idx < len(frontend) and frontend[head_idx][0] <= now + 1:
                imminent = True

        if imminent or not self.allow_skip:
            step = 1
            if not imminent and self._next_event_cycle(now) is None:
                if not self._finished():
                    self._raise_deadlock(now, len(self.iq),
                                         self._frontend_len())
                return
        else:
            target = self._next_event_cycle(now)
            if target is None:
                if self._finished():
                    return
                self._raise_deadlock(now, len(self.iq),
                                     self._frontend_len())
            step = max(1, target - now)

        self._accumulate(now, step)
        self.cycle = now + step

        if self.cycle - self._last_commit_cycle > self.params.deadlock_cycles:
            self._raise_deadlock(now, len(self.iq), self._frontend_len())

    def _next_event_cycle(self, now: int) -> Optional[int]:
        candidates: List[int] = []
        if self._events:
            candidates.append(self._events[0][0])
        if self._frontend_head < len(self._frontend):
            ready = self._frontend[self._frontend_head][0]
            if ready > now:
                candidates.append(ready)
        if self._fetch_stall_until > now and self._fetch_blocked_on is None:
            candidates.append(self._fetch_stall_until)
        if self._commit_stall_until > now:
            candidates.append(self._commit_stall_until)
        if self._monitor_auto and self._monitor.expiry > now:
            candidates.append(self._monitor.expiry)
        if self._ltp_entries:
            hint = self.policy.next_event_cycle(now)
            if hint is not None and hint > now:
                candidates.append(hint)
        if not candidates:
            return None
        return max(now + 1, min(candidates))

    def _raise_deadlock(self, now: int, iq_len: int,
                        frontend_len: int) -> None:
        head = self.rob.head()
        raise SimulationDeadlock(
            f"no progress at cycle {now}: rob={len(self.rob)} "
            f"iq={iq_len} policy={self.policy.name!r} "
            f"parked={len(self.policy.queue)} "
            f"frontend={frontend_len} head={head!r} "
            f"free_int={self.regfile.free('int')} "
            f"free_fp={self.regfile.free('fp')} "
            f"lq={self.lsq.lq_used} sq={self.lsq.sq_used}"
        )

    def _accumulate(self, now: int, step: int) -> None:
        queue = self.policy.queue
        lsq = self.lsq
        occ = self._occ_rob
        level = len(self._rob_entries)
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_iq
        level = self.iq.occupancy
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_lq
        level = lsq.lq_used
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_sq
        level = lsq.sq_used
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        rf_free = self._rf_free
        occ = self._occ_rf_int
        level = self._rf_cap_int - rf_free["int"]
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_rf_fp
        level = self._rf_cap_fp - rf_free["fp"]
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_ltp
        level = len(queue._entries)
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_ltp_regs
        level = queue.parked_with_dst
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_ltp_loads
        level = queue.parked_loads
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        occ = self._occ_ltp_stores
        level = queue.parked_stores
        occ.integral += level * step
        if level > occ.peak:
            occ.peak = level
        if not self._monitor_off:
            self.stats.ltp_enabled_cycles += self._monitor.enabled_span(
                now, now + step)

    # ==================================================================
    # fetch
    # ==================================================================
    def _fetch(self, now: int) -> bool:
        if self._fetch_blocked_on is not None:
            self.stats.stall_frontend += 1
            return False
        if now < self._fetch_stall_until:
            return False
        trace = self._trace_seq
        idx = self._trace_idx
        length = self._trace_len
        if idx >= length:
            return False
        frontend = self._frontend
        if (len(frontend) - self._frontend_head
                + self.params.fetch_width > self._frontend_cap):
            return False

        first = trace[idx]
        icache = self.hierarchy.access_inst(first.code_addr, now)
        if icache.complete_cycle > now + 1:
            self._fetch_stall_until = icache.complete_cycle
            return False

        stats = self.stats
        bpred_update = self.bpred.predict_and_update
        fetched = 0
        width = self.params.fetch_width
        ready = now + self.params.frontend_depth
        while fetched < width and idx < length:
            dyn = trace[idx]
            idx += 1
            frontend.append((ready, dyn))
            fetched += 1
            stats.fetched += 1
            if dyn.is_branch:
                correct = bpred_update(dyn.pc, dyn.taken)
                if not correct:
                    stats.branch_mispredicts += 1
                    self._fetch_blocked_on = dyn.seq
                    break
            elif dyn.taken:
                break  # taken jump/branch ends the fetch group
        self._trace_idx = idx
        return fetched > 0

    # ==================================================================
    # rename / dispatch / park
    # ==================================================================
    def _rename(self, now: int) -> bool:
        frontend = self._frontend
        frontend_len = len(frontend)
        if self._frontend_head >= frontend_len:
            return False
        renamed = 0
        width = self.params.rename_width
        stats = self.stats
        rob = self.rob
        rob_entries = self._rob_entries
        rob_capacity = rob.capacity
        policy = self.policy
        scoreboard = self._scoreboard
        scoreboard_get = scoreboard.get
        parked_store_pcs = self._parked_store_pcs
        while renamed < width:
            head_idx = self._frontend_head
            if head_idx >= frontend_len:
                break
            head = frontend[head_idx]
            if head[0] > now:
                break
            if len(rob_entries) >= rob_capacity:
                if renamed == 0:
                    stats.stall_rob += 1
                break
            dyn = head[1]
            record = InFlightInst(dyn)
            src_producers = dyn.src_producers
            n_producers = len(src_producers)
            if n_producers == 1:
                p0 = src_producers[0]
                record.producer_records = (
                    scoreboard_get(p0) if p0 >= 0 else None,)
            elif n_producers == 2:
                p0, p1 = src_producers
                record.producer_records = (
                    scoreboard_get(p0) if p0 >= 0 else None,
                    scoreboard_get(p1) if p1 >= 0 else None)
            elif n_producers:
                record.producer_records = tuple(
                    scoreboard_get(p) if p >= 0 else None
                    for p in src_producers)

            policy.observe_rename(record)
            if record.urgent:
                stats.classified_urgent += 1
            else:
                stats.classified_non_urgent += 1
            if record.non_ready:
                stats.classified_non_ready += 1

            memdep_forced = False
            if record.is_load and parked_store_pcs:
                for store_pc in self.memdep.predicted_stores(dyn.pc):
                    if parked_store_pcs.get(store_pc):
                        memdep_forced = True
                        break

            decision = policy.may_allocate(record, now, memdep_forced)
            if decision == "stall":
                blocker = "stall_ltp_full"
            elif decision == "park":
                blocker = (None if self._can_allocate_park(record)
                           else "stall_lsq")
            else:
                blocker = self._can_allocate_dispatch(record)
            if blocker is not None:
                if renamed == 0:
                    setattr(stats, blocker, getattr(stats, blocker) + 1)
                break
            if decision == "park":
                self._allocate_park(record, now)
            else:
                self._allocate_dispatch(record, now)

            # pop the frontend FIFO; periodic compaction bounds the list
            head_idx += 1
            if head_idx > 64:
                del frontend[:head_idx]
                head_idx = 0
                frontend_len = len(frontend)
            self._frontend_head = head_idx
            scoreboard[dyn.seq] = record
            self._register_dependences(record)
            record.rename_cycle = now
            if record.predicted_ll:
                self._ll_add(record)
            renamed += 1
            stats.renamed += 1
        return renamed > 0

    def _can_allocate_park(self, record: InFlightInst) -> bool:
        if record.is_load and not self._park_loads:
            if not self.lsq.can_allocate_load():
                return False
        if record.is_store and not self._park_stores:
            if not self.lsq.can_allocate_store():
                return False
        if not self._defer_registers and record.rf_class is not None:
            # WIB-style buffer: registers are taken at rename as usual
            if not self.regfile.can_allocate(record.rf_class):
                return False
        return True

    def _allocate_park(self, record: InFlightInst, now: int) -> None:
        dyn = record.dyn
        if record.is_load and not self._park_loads:
            self.lsq.allocate_load()
            record.lq_allocated = True
        if record.is_store and not self._park_stores:
            self.lsq.allocate_store(dyn.seq, dyn.pc)
            record.sq_allocated = True
        if not self._defer_registers and record.rf_class is not None:
            self.regfile.allocate(record.rf_class)
            record.rf_allocated = True
        self.rob.push(record)
        self.policy.park(record)
        self.stats.ltp_parked += 1
        self.stats.ltp_writes += 1
        if record.is_store:
            count = self._parked_store_pcs.get(dyn.pc, 0)
            self._parked_store_pcs[dyn.pc] = count + 1

    def _can_allocate_dispatch(self, record: InFlightInst) -> Optional[str]:
        """Return the stall-stat name blocking dispatch, or None.

        Equivalent to ``iq.full`` / ``regfile.can_allocate`` /
        ``lsq.can_allocate_*`` with the reserve honoured, expanded to
        direct comparisons because rename retries this check every
        cycle it stays blocked.
        """
        iq = self.iq
        if iq.occupancy >= iq.capacity:
            return "stall_iq"
        rf_class = record.rf_class
        if rf_class is not None and self._rf_free[rf_class] < self._rf_need:
            return "stall_regs"
        lsq = self.lsq
        if record.is_load and lsq.lq_used + self._lsq_need > lsq.lq_capacity:
            return "stall_lsq"
        if record.is_store and lsq.sq_used + self._lsq_need > lsq.sq_capacity:
            return "stall_lsq"
        return None

    def _allocate_dispatch(self, record: InFlightInst, now: int) -> None:
        # _can_allocate_dispatch just verified every resource (with the
        # reserve honoured), so take them directly.
        dyn = record.dyn
        if record.rf_class is not None:
            self._rf_free[record.rf_class] -= 1
            record.rf_allocated = True
        if record.is_load:
            self.lsq.lq_used += 1
            record.lq_allocated = True
        if record.is_store:
            self.lsq.allocate_store(dyn.seq, dyn.pc)
            record.sq_allocated = True
        self._rob_entries.append(record)
        self.iq.insert(record)
        self.stats.iq_writes += 1

    def _register_dependences(self, record: InFlightInst) -> None:
        waiting = 0
        for producer in record.producer_records:
            if producer is not None and not producer.done:
                consumers = producer.consumers
                if consumers:
                    consumers.append(record)
                else:  # first consumer: swap the shared () for a list
                    producer.consumers = [record]
                waiting += 1
        record.waiting_on = waiting
        if waiting == 0:
            if record.in_iq:
                self.iq.mark_ready(record)
            else:
                parked_ready = self.policy.on_parked_ready
                if parked_ready is not None and record.parked:
                    parked_ready(record)

    # ==================================================================
    # LTP release (wakeup)
    # ==================================================================
    def _boundary_seq(self) -> int:
        if len(self._ll_seqs) < 2:
            return NO_BOUNDARY
        return self._ll_seqs[1]

    def _ll_add(self, record: InFlightInst) -> None:
        if not record.ll_listed:
            record.ll_listed = True
            insort(self._ll_seqs, record.seq)

    def _ll_remove(self, record: InFlightInst) -> None:
        if record.ll_listed:
            record.ll_listed = False
            index = self._ll_seqs.index(record.seq)
            del self._ll_seqs[index]

    def _ltp_release(self, now: int) -> Tuple[int, bool]:
        policy = self.policy
        if not len(policy.queue):
            return 0, False
        ports = self._release_ports
        boundary = self._boundary_seq()
        head = self.rob.head()
        force_seq = head.seq if head is not None and head.parked else -1
        released = 0
        while released < ports:
            record = policy.on_release_scan(now, boundary, force_seq)
            if record is None:
                break
            if not self._try_release(record, now):
                break
            released += 1
            if record.forced_release:
                self.stats.ltp_forced_releases += 1
        pending = False
        if released >= ports:
            pending = policy.on_release_scan(
                now, boundary, force_seq) is not None
        return released, pending

    def _try_release(self, record: InFlightInst, now: int) -> bool:
        dyn = record.dyn
        if self.iq.full:
            return False
        if (record.rf_class is not None and not record.rf_allocated
                and not self.regfile.can_allocate(record.rf_class,
                                                  honor_reserve=False)):
            return False
        if record.is_load and not record.lq_allocated:
            if not self.lsq.can_allocate_load(honor_reserve=False):
                return False
        if record.is_store and not record.sq_allocated:
            if not self.lsq.can_allocate_store(honor_reserve=False):
                return False

        self.policy.release(record)
        if record.rf_class is not None and not record.rf_allocated:
            self.regfile.allocate(record.rf_class, honor_reserve=False)
            record.rf_allocated = True
        if record.is_load and not record.lq_allocated:
            self.lsq.allocate_load()
            record.lq_allocated = True
        if record.is_store and not record.sq_allocated:
            self.lsq.allocate_store(dyn.seq, dyn.pc)
            record.sq_allocated = True
        if record.is_store:
            count = self._parked_store_pcs.get(dyn.pc, 0)
            if count <= 1:
                self._parked_store_pcs.pop(dyn.pc, None)
            else:
                self._parked_store_pcs[dyn.pc] = count - 1
        self.iq.insert(record)
        self.stats.ltp_released += 1
        self.stats.ltp_reads += 1
        self.stats.iq_writes += 1
        return True

    # ==================================================================
    # issue / execute
    # ==================================================================
    def _issue(self, now: int) -> bool:
        iq = self.iq
        if not iq._ready_heap:
            return False
        fu_used = self._fu_used
        fu_used.clear()
        fu_counts = self.params.fu_counts
        fu_busy_until = self._fu_busy_until
        execute = self._execute

        def try_issue(record: InFlightInst) -> bool:
            group = record.fu_group
            used = fu_used.get(group, 0)
            if used >= fu_counts.get(group, 1):
                return False
            if record.nonpipelined and now < fu_busy_until.get(group, 0):
                return False
            if not execute(record, now):
                return False
            fu_used[group] = used + 1
            return True

        picked = iq.select(try_issue, self.params.issue_width)
        if not picked:
            return False
        stats = self.stats
        for record in picked:
            record.issue_cycle = now
            stats.issued += 1
            stats.rf_reads += record.dyn.n_srcs
        return True

    def _execute(self, record: InFlightInst, now: int) -> bool:
        """Compute the completion time; return False to retry later."""
        if record.is_load:
            return self._execute_load(record, now)

        dyn = record.dyn
        if record.is_store:
            addr = dyn.addr
            resolve_cycle = now + self._lat_agu
            self.lsq.store_executed(dyn.seq, addr, resolve_cycle)
            self._check_violation(record, addr, resolve_cycle)
            completion = resolve_cycle + self._lat_store
            record.completion_cycle = completion
            _heappush(self._events,
                      (completion, record.seq, _EV_COMPLETE, record))
            return True

        latency = self._lat_by_class[dyn.op_class]
        completion = now + latency
        if record.nonpipelined:
            self._fu_busy_until[record.fu_group] = completion
            if record.own_ticket is not None:
                lead = min(self.params.mem.dram_wakeup_lead, latency)
                self._schedule_tag(record, completion - lead)
        record.completion_cycle = completion
        _heappush(self._events, (completion, record.seq, _EV_COMPLETE, record))
        return True

    def _execute_load(self, record: InFlightInst, now: int) -> bool:
        dyn = record.dyn
        agu = self._lat_agu
        addr = dyn.addr

        state, entry = self.lsq.older_store_state(dyn.seq, addr, now)
        if state == "unknown":
            if self.memdep.must_wait(dyn.pc, entry.pc):
                return False  # wait for the store's address
            # speculate past the unknown store
        elif state == "forward":
            completion = now + agu + self._lat_forward
            record.mem_level = "forward"
            self._schedule_completion(record, completion)
            self._schedule_tag(record, completion)
            self._track_open_load(record, addr)
            return True

        result = self.hierarchy.access_data(addr, now + agu,
                                            is_store=False, pc=dyn.pc)
        if result is None:
            return False  # MSHRs full; retry
        record.mem_level = result.level
        record.actual_ll = result.long_latency
        if result.long_latency:
            self.stats.long_latency_loads += 1
            self._ll_add(record)
        if result.level == "dram":
            self.policy.on_dram_demand_access(now)
        self._schedule_completion(record, result.complete_cycle)
        self._schedule_tag(record,
                           min(result.tag_known_cycle, result.complete_cycle))
        self._track_open_load(record, addr)
        return True

    def _track_open_load(self, record: InFlightInst, addr: int) -> None:
        word = addr & _WORD_MASK
        self._open_loads.setdefault(word, []).append(record)

    def _untrack_open_load(self, record: InFlightInst) -> None:
        word = record.dyn.addr & _WORD_MASK
        entries = self._open_loads.get(word)
        if entries:
            try:
                entries.remove(record)
            except ValueError:
                pass
            if not entries:
                del self._open_loads[word]

    def _check_violation(self, store: InFlightInst, addr: int,
                         now: int) -> None:
        """A store resolved its address: detect younger issued loads."""
        word = addr & _WORD_MASK
        for load in self._open_loads.get(word, ()):
            if load.seq > store.seq and load.issue_cycle is not None:
                self.stats.memory_violations += 1
                self._commit_stall_until = max(
                    self._commit_stall_until,
                    now + self.params.violation_penalty)
                self.memdep.train_violation(load.dyn.pc, store.dyn.pc)
                self.policy.on_violation(load.dyn.pc, store.dyn.pc)

    def _schedule_completion(self, record: InFlightInst, cycle: int) -> None:
        record.completion_cycle = cycle
        _heappush(self._events, (cycle, record.seq, _EV_COMPLETE, record))

    def _schedule_tag(self, record: InFlightInst, cycle: int) -> None:
        if record.own_ticket is not None:
            _heappush(self._events, (cycle, record.seq, _EV_TAG, record))

    # ==================================================================
    # writeback
    # ==================================================================
    def _writeback(self, now: int) -> bool:
        events = self._events
        width = self.params.writeback_width
        completed = 0
        progress = False
        policy_tag = self.policy.on_tag_known
        complete = self._complete
        while events and events[0][0] <= now:
            if events[0][2] == _EV_COMPLETE and completed >= width:
                break
            _, _, kind, record = _heappop(events)
            if kind == _EV_TAG:
                policy_tag(record)
                progress = True
                continue
            completed += 1
            progress = True
            complete(record, now)
        return progress

    def _complete(self, record: InFlightInst, now: int) -> None:
        record.done = True
        stats = self.stats
        if record.has_dst:
            stats.rf_writes += 1
        iq_mark_ready = self.iq.mark_ready
        parked_ready = self.policy.on_parked_ready
        for consumer in record.consumers:
            waiting = consumer.waiting_on - 1
            consumer.waiting_on = waiting
            if waiting == 0:
                if consumer.in_iq:
                    iq_mark_ready(consumer)
                elif parked_ready is not None and consumer.parked:
                    parked_ready(consumer)
        record.consumers = ()  # walked: drop the links that close cycles
        self._ll_remove(record)
        if record.own_ticket is not None:
            # safety net: clear tickets no later than completion
            self.policy.on_tag_known(record)
        if record.is_load:
            load_hook = self.policy.on_load_complete
            if load_hook is not None:
                load_hook(record, record.actual_ll)
        if record.seq == self._fetch_blocked_on:
            self._fetch_blocked_on = None
            self._fetch_stall_until = now + self.params.mispredict_penalty

    # ==================================================================
    # commit
    # ==================================================================
    def _commit(self, now: int) -> bool:
        if now < self._commit_stall_until:
            return False
        rob_entries = self._rob_entries
        if not rob_entries or not rob_entries[0].done:
            return False
        committed = 0
        width = self.params.commit_width
        stats = self.stats
        policy_commit = self.policy.on_commit
        regfile_release = self.regfile.release
        lsq = self.lsq
        pop = rob_entries.popleft
        head = rob_entries[0]
        while committed < width:
            pop()
            dyn = head.dyn
            if head.has_dst:
                # frees the previous mapping of the architectural register
                regfile_release(head.rf_class)
            if head.is_load:
                lsq.release_load()
                self._untrack_open_load(head)
                stats.committed_loads += 1
            elif head.is_store:
                self.hierarchy.commit_store(dyn.addr)
                lsq.release_store(dyn.seq)
                stats.committed_stores += 1
            elif dyn.is_branch:
                stats.committed_branches += 1
            if policy_commit is not None:
                policy_commit(head)
            committed += 1
            stats.committed += 1
            if not rob_entries:
                break
            head = rob_entries[0]
            if not head.done:
                break
        self._last_commit_cycle = now
        return True

    # ==================================================================
    # wrap-up
    # ==================================================================
    def _export_activity(self) -> None:
        stats = self.stats
        self.policy.stats_extra(stats)
        stats.extra["avg_outstanding"] = self.hierarchy.average_outstanding(
            self.cycle)
        stats.extra["avg_load_latency"] = (
            self.hierarchy.stats.average_load_latency)
        stats.extra["branch_accuracy"] = self.bpred.accuracy
        stats.extra["prefetches_issued"] = float(
            self.hierarchy.stats.prefetches_issued)
        hits = self.hierarchy.stats.level_hits
        total = max(1, sum(hits.values()))
        for level, count in hits.items():
            stats.extra[f"frac_{level}"] = count / total


def simulate(trace: Sequence[DynInst],
             params: Optional[CoreParams] = None,
             ltp: Optional[LTPConfig] = None,
             **kwargs) -> SimStats:
    """Convenience wrapper: build a :class:`Pipeline` and run it."""
    return Pipeline(trace, params=params, ltp=ltp, **kwargs).run()
