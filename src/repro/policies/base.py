"""The allocation-policy seam between rename and the back-end resources.

The paper's core observation is that *when* an instruction claims its
back-end resources (IQ slot, physical register, LQ/SQ entry) is a
policy choice, not a fixed pipeline property: the baseline allocates
everything at rename and stalls when anything is full, LTP defers
allocation for non-critical instructions, and a whole family of other
strategies (oracle classification, random deferral, readiness-based
deferral) occupy the same design space.

:class:`AllocationPolicy` is that seam, and every policy is a parking
policy: one that never parks (``baseline-stall``) is one whose
:meth:`~AllocationPolicy.wants_park` never says yes.  The engines drive
a policy only through the hooks of this class and never look inside
it: classification at rename (``observe_rename``), the
dispatch/park/stall verdict (``may_allocate``), entry to and exit from
the parking queue (``park``, ``release``; always an
:class:`~repro.ltp.queue.LTPQueue`, so occupancy statistics stay O(1)
per cycle), the wakeup rule (``on_release_scan``, ``on_parked_ready``,
``next_event_cycle``), completion and commit hooks that feed whatever
the policy learns from, policy-owned statistics (``stats_extra``) and
the marks of a stalled rename attempt (``stall_marks``,
``repeat_stall``), which let the kernel's stall-span jump repeat the
attempt in bulk.  A hook attribute that is ``None``
(``on_parked_ready``, ``on_load_complete``, ``on_commit``) is inert,
and the engines skip it.

Structural attributes (``queue``, ``monitor``, ``ports``,
``release_reserve``, ``park_loads``/``park_stores``/
``defer_registers``) size the shared pipeline machinery; every policy
reads them from the run's :class:`~repro.ltp.config.LTPConfig`
(``entries``, ``ports``, ``release_reserve``), so one sweep axis
parameterises every policy.

What the session and the energy model need to know about a policy
(``needs_oracle``, ``needs_model``, ``parks``, ``uses_uit``,
``power_gated``) is stated once, on its class.

Policies register by name in :mod:`repro.policies.registry`;
``SimConfig(policy="...")`` selects one end to end through the
session, sweep and CLI layers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.inflight import InFlightInst
from repro.ltp.config import LTPConfig
from repro.ltp.monitor import DramTimerMonitor
from repro.ltp.queue import LTPQueue

#: the three allocation verdicts :meth:`AllocationPolicy.may_allocate`
#: may return
DISPATCH = "dispatch"
PARK = "park"
STALL = "stall"


class AllocationPolicy:
    """Base policy: park what :meth:`wants_park` chooses, soundly.

    Implements the two invariants every sound parking policy needs:

    * **parked-bit propagation** — a consumer of a parked instruction
      is force-parked too, so nothing in the issue queue can wait on a
      parked producer (the deadlock LTP's Section 5.3 closes), and
    * **forced head release** — the ROB head is always eligible to
      leave, guaranteeing forward progress.

    Subclasses supply :meth:`wants_park` (who parks).  Parked records
    wake on data readiness (``waiting_on == 0``): ``on_parked_ready``
    is the queue's ``mark_ready``, so the engines file a record in the
    queue's seq-ordered ready heaps when its last operand is ready, and
    :meth:`on_release_scan` reads the forced head or the oldest ready
    record.  A policy with another wakeup rule overrides
    :meth:`on_release_scan` and sets ``on_parked_ready`` to ``None``.

    A stalled attempt moves only ``park_stalls`` while :meth:`wants_park`
    reads only the record and state that events move, so the marks are
    ``park_stalls`` under a guard that always holds; a subclass whose
    attempt moves more overrides :meth:`stall_marks` and
    :meth:`repeat_stall`.
    """

    #: registry name and one-line description (set by the
    #: ``@register_policy`` decorator)
    name: str = "?"
    description: str = ""
    #: the class takes the config's frozen model artifact as ``model=``
    needs_model = False
    #: the DRAM-timer monitor power-gates the parking structures, so the
    #: energy model scales their dynamic share by the enabled fraction
    power_gated = False

    @classmethod
    def needs_oracle(cls, ltp: LTPConfig) -> bool:
        """Does a run under *ltp* need the trace oracle annotation?"""
        return False

    @classmethod
    def parks(cls, ltp: LTPConfig) -> bool:
        """Does a run under *ltp* occupy the parking queue?"""
        return True

    @classmethod
    def uses_uit(cls, ltp: LTPConfig) -> bool:
        """Does a run under *ltp* consult the UIT classifier CAM?"""
        return False

    def __init__(self, ltp: LTPConfig, dram_latency: int) -> None:
        self.ltp_config = ltp
        #: the parking structure.  Always an LTPQueue so the pipeline's
        #: occupancy integration and ``_ltp_entries`` fast-path gate
        #: work unchanged.
        self.queue, monitor_mode = self._parking(ltp)
        #: power-management monitor consulted by the pipeline's idle
        #: jump; "off" means the policy never gates on it
        self.monitor = DramTimerMonitor(dram_latency, mode=monitor_mode)
        #: releases per cycle out of the parking structure, and the
        #: registers / LSQ entries reserved for parked-release progress
        self.ports = ltp.ports
        self.release_reserve = ltp.release_reserve
        #: rename stalls caused by a full parking structure
        self.park_stalls = 0
        #: ``None``, or called by the engines with a parked record whose
        #: last operand just became ready (see the module docstring);
        #: ``None`` lets the engines skip the ``parked`` test entirely
        self.on_parked_ready = self.queue.mark_ready

    def _parking(self, ltp: LTPConfig) -> Tuple[LTPQueue, str]:
        """The parking queue and DRAM-timer monitor mode under *ltp*."""
        return LTPQueue(ltp.entries, fifo_only=False), "off"

    # -- structural attributes the pipeline sizes itself from ----------
    #: parked memory operations also defer their LQ/SQ allocation
    park_loads = False
    park_stores = False
    #: parked instructions defer their register allocation (False =
    #: WIB-style: registers taken at rename even when parked)
    defer_registers = True

    # -- rename-time hooks ---------------------------------------------
    def observe_rename(self, record: InFlightInst) -> None:
        """Classify *record* (urgency/readiness); base: leave defaults."""

    def wants_park(self, record: InFlightInst, now: int):
        """Does the policy choose to park *record*? (no forcing here)

        A false value dispatches; ``True`` parks with the policy's name
        as the ``park_reason``, and a string parks with that reason.
        """
        raise NotImplementedError

    def may_allocate(self, record: InFlightInst, now: int,
                     memdep_forced: bool = False) -> str:
        """Decide *record*'s fate at rename: a memory-dependence victim
        or a consumer of a parked record parks, anything else as
        :meth:`wants_park` says; a park into a full queue stalls."""
        if memdep_forced:
            reason = "memdep"
        else:
            for producer in record.producer_records:
                if producer is not None and producer.parked:
                    reason = "parked-bit"
                    break
            else:
                reason = self.wants_park(record, now)
                if not reason:
                    return DISPATCH
        if self.queue.full:
            self.park_stalls += 1
            return STALL
        record.park_reason = self.name if reason is True else reason
        return PARK

    def park(self, record: InFlightInst) -> None:
        """Accept *record* into the parking structure."""
        self.queue.push(record)

    # -- wakeup ---------------------------------------------------------
    def on_release_scan(self, now: int, boundary_seq: int,
                        force_seq: int) -> Optional[InFlightInst]:
        """The parked record to release next, or ``None``.

        *boundary_seq* is the second-oldest in-flight long-latency
        instruction's sequence number, *force_seq* the ROB head's when
        the head is parked (the deadlock-avoidance rule every parking
        policy must honour).  The engines call it once per release port
        per cycle (and once more when every port released) and release
        the answer if resources allow.
        """
        return self.queue.next_release(force_seq)

    def release(self, record: InFlightInst) -> None:
        """*record* leaves the parking structure (resources granted)."""
        self.queue.remove(record)

    def next_event_cycle(self, now: int) -> Optional[int]:
        """The next cycle at which a parked record may become eligible
        for reasons invisible to the pipeline's event heap (e.g. a
        time-based release rule), or ``None``.  The idle jump consults
        this so skipping cycles never changes results."""
        return None

    # -- execution / retirement hooks ------------------------------------
    def on_tag_known(self, record: InFlightInst) -> None:
        """A long-latency operation signalled early data return."""

    #: ``None``, or called as ``(record, was_long_latency)`` when a load
    #: finishes (*was_long_latency* is the ground truth)
    on_load_complete = None
    #: ``None``, or called with each record as it retires
    on_commit = None

    def on_violation(self, load_pc: int, store_pc: int) -> None:
        """A memory-order violation was detected."""

    def on_dram_demand_access(self, now: int) -> None:
        """A demand access missed in the L3."""

    def attach_memory(self, hierarchy) -> None:
        """The pipeline offers its memory hierarchy before cycle 0.

        Policies that read live cache/MSHR state (``loadpred-park``)
        keep the reference; the base class ignores it, so most policies
        stay hierarchy-free.  The reference must be used read-only —
        the hierarchy's mutation schedule is owned by the pipeline.
        """

    # -- warmup / wrap-up ------------------------------------------------
    def warm_from_trace(self, warmup_slice: Sequence,
                        long_latency_flags: Optional[Sequence]) -> None:
        """Pre-train online structures from the warmup slice."""

    def stats_extra(self, stats) -> None:
        """Export policy-owned statistics into *stats* at run end."""
        stats.ltp_park_stalls = self.park_stalls

    # -- stalled rename attempts ------------------------------------------
    def stall_marks(self, dyn) -> tuple:
        """``(guard, *counters)`` as they stand around a rename attempt
        of *dyn*.  The kernel reads them before and after an attempt
        that stalls; an unchanged guard means the attempt moved only
        the counters, so the kernel's stall-span jump may skip the
        cycles in which the attempt would only repeat, charging them
        through :meth:`repeat_stall`.  An override states a checked
        property of the policy's hooks."""
        return (None, self.park_stalls)

    def repeat_stall(self, before: tuple, after: tuple,
                     times: int) -> None:
        """Charge *times* more repeats of a stalled attempt whose marks
        went from *before* to *after*."""
        self.park_stalls += (after[1] - before[1]) * times

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"
