"""LTP controller: parking decisions, wakeup policy, and learning hooks.

This object owns the parking queue, classifiers, ticket CAM, hit/miss
predictor and DRAM-timer monitor, and exposes the narrow interface the
pipeline drives:

* :meth:`observe_rename` — classify an instruction at rename (urgency,
  readiness/tickets, long-latency prediction).
* :meth:`decide` — park / dispatch / stall, honouring parked-bit
  propagation and the memory-dependence interaction of Section 5.3.
* :meth:`release_candidates` — the wakeup policy: Non-Urgent
  instructions wake between the ROB head and the second in-flight
  long-latency instruction; Non-Ready instructions wake when their
  tickets clear; the ROB head is always forced out (Section 5.4).
  Wakeup is event-driven, not an oldest-first scan: a record joins the
  queue's ready lists when it parks ticket-free or when
  :meth:`on_tag_known` clears its last ticket, and a release reads the
  oldest ready entries.
* completion/commit hooks that feed the UIT, tickets and predictor.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.inflight import InFlightInst
from repro.ltp.classifier import OnlineClassifier, OracleClassifier
from repro.ltp.config import LTPConfig
from repro.ltp.monitor import DramTimerMonitor
from repro.ltp.oracle import OracleInfo
from repro.ltp.predictor import HitMissPredictor
from repro.ltp.queue import LTPQueue
from repro.ltp.tickets import TicketPool, TicketTracker

#: sentinel for "no boundary" (fewer than two long-latency ops in flight)
NO_BOUNDARY = 1 << 62


class LTPController:
    """Integration point between the pipeline and all LTP structures."""

    def __init__(self, config: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        config.validate()
        if config.classifier == "oracle" and oracle is None:
            raise ValueError("oracle classifier requires OracleInfo")
        self.config = config
        self.oracle = oracle
        self.queue = LTPQueue(config.entries if config.enabled else 1,
                              fifo_only=(config.mode == "nu"))
        if config.classifier == "oracle":
            self.classifier = OracleClassifier(
                oracle, granularity=config.oracle_granularity)
        else:
            self.classifier = OnlineClassifier(uit_size=config.uit_size,
                                               uit_ways=config.uit_ways)
        self.predictor = (HitMissPredictor()
                          if config.ll_predictor == "twolevel" else None)
        self.tickets = TicketTracker(TicketPool(config.tickets))
        monitor_mode = config.monitor if config.enabled else "off"
        self.monitor = DramTimerMonitor(dram_latency, mode=monitor_mode)
        self.park_stalls = 0
        #: ``config`` is immutable after ``validate()``; cache the mode
        #: predicate and bind the classifier hook the rename hot path
        #: consults on every attempt
        self._parks_nr = config.parks_nr
        self._eager = config.wakeup_policy == "eager"
        self._classify = self.classifier.observe_rename

    # ------------------------------------------------------------------
    # enable state
    # ------------------------------------------------------------------
    def is_enabled(self, now: int) -> bool:
        return self.config.enabled and self.monitor.is_enabled(now)

    def on_dram_demand_access(self, now: int) -> None:
        """A demand access missed in L3 — restart the monitor timer."""
        self.monitor.touch(now)

    # ------------------------------------------------------------------
    # rename-time classification
    # ------------------------------------------------------------------
    def predict_long_latency(self, record: InFlightInst) -> bool:
        dyn = record.dyn
        # pre-decoded nonpipelined <=> op class in LONG_FIXED_CLASSES
        # (both are exactly the divide classes)
        if dyn.nonpipelined:
            return True
        if not dyn.is_load:
            return False
        if self.predictor is not None:
            return self.predictor.predict_long_latency(dyn.pc)
        if self.oracle is not None:
            return self.oracle.is_long_latency(record.seq)
        return False

    def observe_rename(self, record: InFlightInst) -> None:
        """Classify *record*; set urgency/readiness/ticket state.

        Runs on every rename *attempt* (retried stalls included), so the
        long-latency prediction is inlined for the common cases: records
        that are neither loads nor divides keep ``predicted_ll`` at the
        ``False`` their constructor set, without a predictor call.
        """
        record.urgent = self._classify(record)
        dyn = record.dyn
        if self._parks_nr:
            self.tickets.inherit(record, record.producer_records)
            record.non_ready = bool(record.tickets)
            predicted = (True if dyn.nonpipelined else
                         dyn.is_load and self.predict_long_latency(record))
            record.predicted_ll = predicted
            if predicted:
                self.tickets.grant(record)
        elif dyn.nonpipelined:
            record.predicted_ll = True
        elif dyn.is_load:
            record.predicted_ll = self.predict_long_latency(record)

    def observe_attempt(self, dyn) -> bool:
        """Replay :meth:`observe_rename`'s observable side effects for
        a rename attempt whose record is about to be discarded on a
        capacity stall, without constructing the record.

        Only valid on a *disabled* controller (``parks_nr`` False, so
        no ticket inheritance): the classifier probe and — for loads —
        the hit/miss predictor lookup are then the only state the
        reference attempt mutates; everything else the attempt writes
        lands on the discarded record.  (The oracle long-latency lookup
        is a pure list read and is elided.)  Returns the urgency bit so
        the caller can keep the per-attempt classification counters.
        """
        urgent = self.classifier.classify_dyn(dyn)
        if (self.predictor is not None and dyn.is_load
                and not dyn.nonpipelined):
            self.predictor.predict_long_latency(dyn.pc)
        return urgent

    # ------------------------------------------------------------------
    # parking decision
    # ------------------------------------------------------------------
    def decide(self, record: InFlightInst, now: int,
               memdep_forced: bool = False) -> str:
        """Return "park", "dispatch" or "stall" for a renamed record."""
        if not self.config.enabled:
            return "dispatch"
        forced = memdep_forced
        reason = "memdep" if memdep_forced else None
        if not forced:
            for producer in record.producer_records:
                if producer is not None and producer.parked:
                    forced = True
                    reason = "parked-bit"
                    break
        want_park = forced
        if not want_park and self.is_enabled(now):
            if self.config.parks_nu and not record.urgent:
                want_park = True
                reason = "non-urgent"
            elif self.config.parks_nr and record.non_ready:
                want_park = True
                reason = "non-ready"
        if not want_park:
            return "dispatch"
        if self.queue.full:
            self.park_stalls += 1
            return "stall"
        record.park_reason = reason
        return "park"

    def park(self, record: InFlightInst) -> None:
        self.queue.push(record)
        if self._parks_nr and not record.tickets:
            self.queue.mark_ready(record)

    # ------------------------------------------------------------------
    # wakeup policy
    # ------------------------------------------------------------------
    def release_candidates(self, now: int, boundary_seq: int,
                           force_seq: int, limit: int) -> List[InFlightInst]:
        """Records eligible to leave LTP this cycle, oldest first.

        *boundary_seq* is the sequence number of the second-oldest
        in-flight long-latency instruction (Section 3.2's Non-Urgent
        criterion); *force_seq* is the ROB head's sequence number when
        the head is parked (deadlock avoidance, Section 5.4).  The head
        of the queue is then the ROB head, and it leaves first,
        tickets or not.

        Otherwise a record is eligible once it holds no tickets, and a
        non-urgent one also only below the boundary.  Urgent records
        land in LTP only via parked-bit forcing or ticket (NR) parking,
        so they leave as soon as their tickets clear; draining (monitor
        off) and the eager ablation drop the ROB-position rule.  The
        FIFO queue of the NU-only design checks its head; the NR modes
        read the queue's ready lists, which ``park`` and
        :meth:`on_tag_known` keep current.
        """
        queue = self.queue
        if not len(queue):
            return []
        head = queue.head()
        forced = head.seq == force_seq
        if forced:
            head.forced_release = True
            if limit == 1 or queue.fifo_only:
                return [head]
        if self._eager or not self.is_enabled(now):
            boundary_seq = NO_BOUNDARY
        if queue.fifo_only:
            if head.tickets or not (head.urgent or head.seq < boundary_seq):
                return []
            return [head]
        if not forced:
            return queue.ready(limit, boundary_seq)
        # the forced head, then the oldest other ready records
        return [head] + [record for record in queue.ready(limit, boundary_seq)
                         if record is not head][:limit - 1]

    def release(self, record: InFlightInst) -> None:
        self.queue.remove(record)

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_tag_known(self, record: InFlightInst) -> None:
        """Early data-return signal: clear the record's ticket.

        Tickets only shrink once a record is renamed, so a parked
        holder left with none becomes ready exactly here, once.
        """
        ticket = record.own_ticket
        if ticket is not None:
            record.own_ticket = None
            mark_ready = self.queue.mark_ready
            for holder in self.tickets.clear(ticket):
                if holder.parked and not holder.tickets:
                    mark_ready(holder)

    def on_load_complete(self, record: InFlightInst,
                         was_long_latency: bool) -> None:
        if self.predictor is not None:
            self.predictor.update(record.dyn.pc, was_long_latency)

    def on_commit(self, record: InFlightInst) -> None:
        if record.actual_ll and record.dyn.is_load:
            self.classifier.on_long_latency_commit(record.dyn.pc)

    def on_violation(self, load_pc: int, store_pc: int) -> None:
        self.classifier.on_violation(store_pc)

    # ------------------------------------------------------------------
    # warmup
    # ------------------------------------------------------------------
    def warm_from_trace(self, trace, long_latency_flags) -> None:
        """Pre-train the online classifier from a warmup slice."""
        if isinstance(self.classifier, OnlineClassifier):
            events = ((dyn.pc, dyn.inst.srcs, dyn.inst.dst, bool(flag))
                      for dyn, flag in zip(trace, long_latency_flags))
            self.classifier.warm(events, None)
        if self.predictor is not None:
            for dyn, flag in zip(trace, long_latency_flags):
                if dyn.is_load:
                    self.predictor.update(dyn.pc, bool(flag))


def null_controller(dram_latency: int = 190) -> LTPController:
    """A disabled controller for baseline (no-LTP) runs."""
    return LTPController(LTPConfig(enabled=False), dram_latency)
