"""Scenario policies beyond the paper: oracle, random and depth parking.

These populate the policy-scenario space the LTP paper's comparisons
imply but never simulate directly:

* :class:`OracleParkPolicy` — perfect classification: park exactly the
  instructions the trace oracle labels Non-Urgent.  The upper bound any
  learned classifier (the UIT) chases.
* :class:`RandomParkPolicy` — a criticality-blind strawman: park a
  deterministic pseudo-random fraction of instructions and wake them
  after a fixed countdown.  If criticality classification mattered,
  this must lose to LTP at equal parking rates.
* :class:`DepthParkPolicy` — a dependence-depth heuristic: park
  instructions far down an in-flight dependence chain (they cannot
  issue soon anyway) and wake them when their operands are ready — a
  WIB-flavoured "park until ready" design point.

All three share the soundness machinery (parked-bit propagation,
forced ROB-head release) and are parameterised by the run's LTP config
(``entries``, ``ports``, ``release_reserve``), so the
``policy-compare`` sweep preset can put them on the same axes as LTP
itself.  Every wakeup is event-driven: ``oracle-park`` reuses LTP's
ready lists, ``depth-park`` inherits
:class:`~repro.policies.base.AllocationPolicy`'s data-ready wakeup, and
``random-park`` reads only its queue head, because a countdown from
rename expires in queue order.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.inflight import InFlightInst
from repro.ltp.config import LTPConfig
from repro.ltp.oracle import OracleInfo
from repro.policies.base import AllocationPolicy
from repro.policies.ltp import LTPPolicy
from repro.policies.registry import register_policy


@register_policy(
    "oracle-park",
    description="park exactly the oracle's Non-Urgent set (perfect "
                "classification; the bound learned classifiers chase)")
class OracleParkPolicy(LTPPolicy):
    """LTP wakeup discipline driven by perfect oracle classification.

    Reuses the full LTP release machinery (ROB-position wakeup, forced
    head release, reserves) but classifies with the trace oracle
    regardless of what the run's LTP config says, and keeps parking
    enabled unconditionally (no DRAM-timer gating) — the idealisation
    the limit study reaches for with learned structures removed.
    """

    #: the monitor is forced "on": nothing power-gates the queue
    power_gated = False

    @classmethod
    def configure(cls, ltp: LTPConfig) -> LTPConfig:
        return ltp.but(enabled=True, classifier="oracle",
                       ll_predictor="oracle", monitor="on", uit_size=None)

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        if oracle is None:
            raise ValueError(
                "oracle-park requires the trace oracle annotation "
                "(run it through the session layer)")
        super().__init__(ltp, dram_latency, oracle=oracle)


def note_depth(record: InFlightInst, depths: Dict[int, int]) -> int:
    """Record and return *record*'s in-flight dependence depth: one more
    than its deepest producer still in flight, 0 with none.  *depths*
    maps the sequence numbers of in-flight records to their depths."""
    depth = 0
    for producer in record.producer_records:
        if producer is not None and not producer.done:
            candidate = depths.get(producer.seq, 0) + 1
            if candidate > depth:
                depth = candidate
    depths[record.seq] = depth
    return depth


def _mix(seq: int, pc: int) -> int:
    """A tiny deterministic integer hash (no Python hash salting)."""
    h = (seq * 0x9E3779B1 ^ pc * 0x85EBCA77) & 0xFFFFFFFF
    h = (h ^ (h >> 15)) * 0xC2B2AE3D & 0xFFFFFFFF
    return (h ^ (h >> 13)) & 0xFFFF


@register_policy(
    "random-park",
    description="park a deterministic pseudo-random fraction of "
                "instructions, waking each after a fixed countdown "
                "(criticality-blind strawman)")
class RandomParkPolicy(AllocationPolicy):
    """Criticality-blind parking: a fixed fraction, a fixed countdown.

    Parking decisions hash the instruction's (sequence number, PC) so
    runs are bit-reproducible across processes and machines.  Parked
    records wake ``delay`` cycles after rename (oldest first, ports
    permitting); :meth:`next_event_cycle` exposes the next countdown
    expiry so the pipeline's idle jump never skips a wakeup.  Rename is
    in order, so ``rename_cycle`` never decreases along the queue and
    only its head can be the oldest expired record.
    """

    #: fraction of instructions parked (out of 65536)
    fraction = 0.25
    #: cycles a parked record waits before becoming releasable
    delay = 32

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        super().__init__(ltp, dram_latency)
        self._threshold = int(self.fraction * 65536)
        self.on_parked_ready = None  # the countdown ignores operands

    def wants_park(self, record: InFlightInst, now: int) -> bool:
        return _mix(record.seq, record.dyn.pc) < self._threshold

    def on_release_scan(self, now: int, boundary_seq: int,
                        force_seq: int) -> Optional[InFlightInst]:
        head = self.queue.head()
        if head is None:
            return None
        if head.seq == force_seq:
            head.forced_release = True
            return head
        parked_at = head.rename_cycle
        if parked_at is not None and now - parked_at >= self.delay:
            return head
        return None

    def next_event_cycle(self, now: int) -> Optional[int]:
        head = self.queue.head()
        if head is None or head.rename_cycle is None:
            return None
        expiry = head.rename_cycle + self.delay
        return expiry if expiry > now else None


@register_policy(
    "depth-park",
    description="park instructions deep in an in-flight dependence "
                "chain, waking each when its operands are ready "
                "(WIB-flavoured park-until-ready)")
class DepthParkPolicy(AllocationPolicy):
    """Dependence-depth parking with readiness-based wakeup.

    An instruction whose chain of *in-flight* producers is at least
    ``threshold`` deep cannot issue for several cycles no matter what,
    so deferring its allocations costs little.  Parked records wake as
    soon as every producer has completed (``waiting_on == 0``) — data
    readiness, not criticality, drives the wakeup, which is exactly the
    slice-buffer contrast the paper draws in related work.
    """

    #: minimum in-flight producer-chain depth that parks
    threshold = 3

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        super().__init__(ltp, dram_latency)
        #: seq -> dependence depth, for in-flight records only (pruned
        #: at commit, so bounded by the ROB)
        self._depths = {}

    def observe_rename(self, record: InFlightInst) -> None:
        note_depth(record, self._depths)

    def wants_park(self, record: InFlightInst, now: int) -> bool:
        return self._depths.get(record.seq, 0) >= self.threshold

    def on_commit(self, record: InFlightInst) -> None:
        self._depths.pop(record.seq, None)
