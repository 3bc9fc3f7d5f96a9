"""The two reference policies: the paper's LTP and the stalling baseline.

:class:`LTPPolicy` is Long Term Parking as one object: it owns the
parking queue, classifiers, ticket CAM, hit/miss predictor and
DRAM-timer monitor, and every hook the engines drive is a method of its
own class.  It is an :class:`~repro.policies.base.AllocationPolicy`: the
shared :meth:`~repro.policies.base.AllocationPolicy.may_allocate` applies
the memory-dependence forcing of Section 5.3 and parked-bit
propagation, and LTP supplies only the choice:

* :meth:`~LTPPolicy.observe_rename` — classify an instruction at rename
  (urgency, readiness/tickets, long-latency prediction).
* :meth:`~LTPPolicy.wants_park` — while the DRAM-timer monitor enables
  LTP, park Non-Urgent (``"non-urgent"``) or Non-Ready
  (``"non-ready"``) instructions, as the mode allows.
* :meth:`~LTPPolicy.on_release_scan` — the wakeup policy: Non-Urgent
  instructions wake between the ROB head and the second in-flight
  long-latency instruction; Non-Ready instructions wake when their
  tickets clear; the ROB head is always forced out (Section 5.4).
  Wakeup is event-driven, not an oldest-first scan: a record joins the
  queue's ready lists when it parks ticket-free or when
  :meth:`~LTPPolicy.on_tag_known` clears its last ticket, and a release
  reads the oldest ready entry (:meth:`LTPQueue.next_release`).
* completion/commit hooks that feed the UIT, tickets and predictor.

Unlike the data-ready parkers it keeps a FIFO queue in the NU-only
design, wakes by ticket and ROB position (``on_parked_ready`` is
``None``), and reserves no registers while disabled.

:class:`BaselineStallPolicy` is the no-LTP machine made explicit: a
*disabled* LTP policy, so rename still classifies instructions (the UIT
activity and urgency tallies the disabled-LTP baseline always recorded)
but every instruction allocates at rename and stalls when a resource is
full.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.inflight import InFlightInst
from repro.ltp.classifier import OnlineClassifier, OracleClassifier
from repro.ltp.config import LTPConfig
from repro.ltp.oracle import OracleInfo
from repro.ltp.predictor import HitMissPredictor
from repro.ltp.queue import NO_BOUNDARY, LTPQueue
from repro.ltp.tickets import TicketPool, TicketTracker
from repro.policies.base import AllocationPolicy
from repro.policies.registry import register_policy


@register_policy(
    "ltp",
    description="the paper's Long Term Parking mechanism "
                "(criticality-aware deferred allocation); degrades to "
                "the stalling baseline when ltp.enabled is False")
class LTPPolicy(AllocationPolicy):
    """Long Term Parking, driven through the policy seam.

    Structural attributes (reserve, park flags) mirror *ltp*.
    """

    power_gated = True

    @classmethod
    def configure(cls, ltp: LTPConfig) -> LTPConfig:
        """The LTP config a policy of this class runs for *ltp*."""
        return ltp

    @classmethod
    def needs_oracle(cls, ltp: LTPConfig) -> bool:
        ltp = cls.configure(ltp)
        # a disabled policy still classifies, with the oracle if named
        return ltp.enabled or ltp.classifier == "oracle"

    @classmethod
    def parks(cls, ltp: LTPConfig) -> bool:
        return cls.configure(ltp).enabled

    @classmethod
    def uses_uit(cls, ltp: LTPConfig) -> bool:
        # clocked with the queue; only the online classifier has a UIT
        ltp = cls.configure(ltp)
        return ltp.enabled and ltp.classifier == "online"

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        ltp = self.configure(ltp).validate()
        if ltp.classifier == "oracle" and oracle is None:
            raise ValueError("oracle classifier requires OracleInfo")
        super().__init__(ltp, dram_latency)
        if not ltp.enabled:
            self.release_reserve = 0
        self.park_loads = ltp.park_loads
        self.park_stores = ltp.park_stores
        self.defer_registers = ltp.defer_registers
        self.oracle = oracle
        self.on_parked_ready = None  # tickets and ROB position wake
        if ltp.classifier == "oracle":
            self.classifier = OracleClassifier(
                oracle, granularity=ltp.oracle_granularity)
        else:
            self.classifier = OnlineClassifier(uit_size=ltp.uit_size,
                                               uit_ways=ltp.uit_ways)
        self.predictor = (HitMissPredictor()
                          if ltp.ll_predictor == "twolevel" else None)
        if self.predictor is None:
            self.on_load_complete = None  # nothing trains on loads
        self.tickets = TicketTracker(TicketPool(ltp.tickets))
        #: ``ltp`` is immutable after ``validate()``; cache the mode
        #: predicates and bind the classifier hook the rename hot path
        #: consults on every attempt
        self._parks_nr = ltp.parks_nr
        self._parks_nu = ltp.parks_nu
        self._eager = ltp.wakeup_policy == "eager"
        self._classify = self.classifier.observe_rename
        #: :meth:`is_enabled` as one call: a disabled policy's monitor
        #: is "off", and the monitor's mode is fixed
        self._enabled_at = self.monitor.predicate()
        #: the online classifier's table (None for the oracle one)
        self._uit = getattr(self.classifier, "uit", None)

    def _parking(self, ltp: LTPConfig) -> Tuple[LTPQueue, str]:
        queue = LTPQueue(ltp.entries if ltp.enabled else 1,
                         fifo_only=(ltp.mode == "nu"))
        return queue, ltp.monitor if ltp.enabled else "off"

    # ------------------------------------------------------------------
    # enable state
    # ------------------------------------------------------------------
    def is_enabled(self, now: int) -> bool:
        return self.ltp_config.enabled and self.monitor.is_enabled(now)

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

    # ------------------------------------------------------------------
    # stalled rename attempts
    # ------------------------------------------------------------------
    def stall_marks(self, dyn) -> tuple:
        """``(guard, *counters)`` around a rename attempt of *dyn*.

        The attempt's hooks (:meth:`observe_rename`, then
        :meth:`may_allocate`) write the discarded record, and otherwise
        only:

        * the classifier's state and counters, under the classifier's
          own ``stall_marks`` guard, which this one includes;
        * counters: the hit/miss predictor's lookup tallies,
          ``park_stalls`` and the ticket pool's ``exhausted``;
        * the guarded ticket grants (a granted ticket is never
          released);
        * inert state: ticket inheritance adds the discarded record to
          a ticket's holder list, which clearing the ticket later only
          strips from the record (a record that never parked is never
          marked ready).

        So an attempt whose guard did not move repeats with the same
        outcome and the same counter deltas.
        """
        guard, lookups, inserts = self.classifier.stall_marks(dyn)
        pool = self.tickets.pool
        predictor = self.predictor
        return ((guard, pool.allocated), lookups, inserts,
                self.park_stalls, pool.exhausted,
                predictor.lookups if predictor else 0,
                predictor.predicted_misses if predictor else 0)

    def repeat_stall(self, before: tuple, after: tuple,
                     times: int) -> None:
        """Charge *times* more repeats of an attempt whose
        :meth:`stall_marks` went from *before* to *after*."""
        lookups, inserts, park_stalls, exhausted, pred_lookups, pred_misses = (
            (a - b) * times for a, b in zip(after[1:], before[1:]))
        self.classifier.repeat_stall(lookups, inserts)
        self.park_stalls += park_stalls
        self.tickets.pool.exhausted += exhausted
        predictor = self.predictor
        if predictor is not None:
            predictor.lookups += pred_lookups
            predictor.predicted_misses += pred_misses

    # ------------------------------------------------------------------
    # parking decision
    # ------------------------------------------------------------------
    def wants_park(self, record: InFlightInst, now: int):
        """``"non-urgent"`` or ``"non-ready"`` while the monitor enables
        LTP and the mode parks that class, else ``False`` (always, for
        a disabled policy, which parks neither class)."""
        if self._parks_nu and not record.urgent:
            reason = "non-urgent"
        elif self._parks_nr and record.non_ready:
            reason = "non-ready"
        else:
            return False
        return reason if self._enabled_at(now) else False

    def park(self, record: InFlightInst) -> None:
        self.queue.push(record)
        if self._parks_nr and not record.tickets:
            self.queue.mark_ready(record)

    # ------------------------------------------------------------------
    # wakeup policy
    # ------------------------------------------------------------------
    def on_release_scan(self, now: int, boundary_seq: int,
                        force_seq: int) -> Optional[InFlightInst]:
        """The record to release from LTP next, or ``None``.

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
        off) and the eager ablation drop the ROB-position rule.  The NR
        modes read the queue's ready lists, which ``park`` and
        :meth:`on_tag_known` keep current; the FIFO queue of the NU-only
        design checks its head.
        """
        if self._eager or not self._enabled_at(now):
            boundary_seq = NO_BOUNDARY
        return self.queue.next_release(force_seq, boundary_seq)

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
        self.predictor.update(record.dyn.pc, was_long_latency)

    def on_commit(self, record: InFlightInst) -> None:
        if record.actual_ll and record.dyn.is_load:
            self.classifier.on_long_latency_commit(record.dyn.pc)

    def on_violation(self, load_pc: int, store_pc: int) -> None:
        self.classifier.on_violation(store_pc)

    # ------------------------------------------------------------------
    # warmup / wrap-up
    # ------------------------------------------------------------------
    def warm_from_trace(self, warmup_slice: Sequence,
                        long_latency_flags: Optional[Sequence]) -> None:
        """Pre-train the online classifier and the hit/miss predictor
        from a warmup slice (an enabled policy with flags only)."""
        if long_latency_flags is None or not self.ltp_config.enabled:
            return
        if isinstance(self.classifier, OnlineClassifier):
            self.classifier.warm(warmup_slice, long_latency_flags)
        if self.predictor is not None:
            self.predictor.warm(warmup_slice, long_latency_flags)

    def stats_extra(self, stats) -> None:
        uit = self._uit
        if uit is not None:
            stats.uit_lookups = uit.lookups
            stats.uit_inserts = uit.inserts
        stats.ltp_park_stalls = self.park_stalls


@register_policy(
    "baseline-stall",
    description="allocate everything at rename and stall on any full "
                "resource (LTP off), regardless of the LTP config")
class BaselineStallPolicy(LTPPolicy):
    """The conventional machine: rename-time allocation, no parking.

    A disabled LTP policy, so classification side effects (UIT lookups,
    urgency tallies) match the historical no-LTP runs bit-for-bit,
    while the LTP mechanism itself is forced off even if the run's LTP
    config says ``enabled=True``.
    """

    power_gated = False  # the monitor is off; there is nothing to gate

    @classmethod
    def configure(cls, ltp: LTPConfig) -> LTPConfig:
        return ltp.but(enabled=False) if ltp.enabled else ltp
