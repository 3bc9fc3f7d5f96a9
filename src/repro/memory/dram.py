"""DRAM channel model: fixed access latency plus bounded issue bandwidth.

The paper's DIMM is DDR3-1600 11-11-11; at the 3.4 GHz core clock a row
access lands around 55-60 ns, i.e. roughly 190 core cycles.  The limit
study only needs "DRAM is ~200 cycles and misses can overlap", so the
model is a single channel that can *start* one burst every
``issue_interval`` cycles and completes each burst ``latency`` cycles
after it starts.  Queueing beyond the issue rate shows up naturally as a
later start time.

The controller also produces an early "data incoming" signal
``wakeup_lead`` cycles before completion — the hook Section 3.2 uses to
wake Non-Ready instructions in time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DRAMTiming:
    """One scheduled DRAM access."""

    start_cycle: int
    complete_cycle: int
    tag_known_cycle: int


def check_timing(latency: int, issue_interval: int, wakeup_lead: int,
                 prefix: str = "") -> None:
    """Raise ``ValueError`` unless the channel timing is sound."""
    if latency <= 0 or issue_interval <= 0 or not 0 <= wakeup_lead <= latency:
        raise ValueError(f"{prefix}latency and {prefix}issue_interval must "
                         f"be positive, {prefix}wakeup_lead within "
                         f"[0, {prefix}latency]")


class DRAMChannel:
    """Single-channel DRAM with a minimum interval between burst starts."""

    def __init__(self, latency: int = 190, issue_interval: int = 6,
                 wakeup_lead: int = 8) -> None:
        check_timing(latency, issue_interval, wakeup_lead)
        self.latency = latency
        self.issue_interval = issue_interval
        self.wakeup_lead = wakeup_lead
        self._next_free = 0
        self.accesses = 0
        self.total_queue_delay = 0

    def schedule(self, request_cycle: int) -> DRAMTiming:
        """Schedule an access arriving at *request_cycle*."""
        start = max(request_cycle, self._next_free)
        self._next_free = start + self.issue_interval
        complete = start + self.latency
        self.accesses += 1
        self.total_queue_delay += start - request_cycle
        return DRAMTiming(start_cycle=start, complete_cycle=complete,
                          tag_known_cycle=complete - self.wakeup_lead)

    @property
    def average_queue_delay(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.total_queue_delay / self.accesses
