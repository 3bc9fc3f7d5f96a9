"""Simulation statistics: counters plus exact time-weighted occupancies.

Occupancy accumulators integrate a level over simulated time, which stays
exact even when the pipeline jumps over idle cycles: the pipeline calls
:meth:`SimStats.accumulate` once per time step with the step's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Occupancy:
    """Time-weighted average of one structure's occupancy."""

    integral: int = 0
    peak: int = 0

    def add(self, level: int, cycles: int = 1) -> None:
        self.integral += level * cycles
        if level > self.peak:
            self.peak = level

    def average(self, total_cycles: int) -> float:
        if total_cycles <= 0:
            return 0.0
        return self.integral / total_cycles


@dataclass
class SimStats:
    """All statistics produced by one simulation run."""

    cycles: int = 0
    committed: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    fetched: int = 0
    renamed: int = 0
    issued: int = 0

    branch_mispredicts: int = 0
    memory_violations: int = 0

    ltp_parked: int = 0
    ltp_released: int = 0
    ltp_forced_releases: int = 0
    ltp_enabled_cycles: int = 0
    ltp_park_stalls: int = 0

    # classification tallies (at rename)
    classified_urgent: int = 0
    classified_non_urgent: int = 0
    classified_non_ready: int = 0

    long_latency_loads: int = 0

    # stall attribution (cycles where rename made no progress, by cause)
    stall_rob: int = 0
    stall_iq: int = 0
    stall_regs: int = 0
    stall_lsq: int = 0
    stall_ltp_full: int = 0
    stall_frontend: int = 0

    occupancies: Dict[str, Occupancy] = field(default_factory=lambda: {
        name: Occupancy() for name in
        ("rob", "iq", "lq", "sq", "rf_int", "rf_fp",
         "ltp", "ltp_regs", "ltp_loads", "ltp_stores")
    })

    # raw activity counts for the energy model
    iq_writes: int = 0
    iq_issues: int = 0
    rf_reads: int = 0
    rf_writes: int = 0
    ltp_writes: int = 0
    ltp_reads: int = 0
    uit_lookups: int = 0
    uit_inserts: int = 0

    extra: Dict[str, float] = field(default_factory=dict)

    def accumulate(self, levels: Dict[str, int], cycles: int = 1) -> None:
        """Integrate occupancy *levels* over *cycles* time steps."""
        occupancies = self.occupancies
        for name, level in levels.items():
            occupancies[name].add(level, cycles)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else 0.0

    @property
    def ltp_enabled_fraction(self) -> float:
        return self.ltp_enabled_cycles / self.cycles if self.cycles else 0.0

    def average_occupancy(self, name: str) -> float:
        return self.occupancies[name].average(self.cycles)

    def equivalence_signature(self) -> Dict[str, float]:
        """The execution-mode-invariant statistics.

        Everything here must be bit-identical across strict
        (``allow_skip=False``) and idle-jumping execution, and across
        the object and kernel engines.  Per-*attempt*
        counters (stall attribution, classification tallies, UIT
        activity) are left out; the jump charges the attempts it skips
        in bulk, and the strict-equivalence tests compare them through
        :meth:`as_dict`.
        """
        sig: Dict[str, float] = {}
        for key in ("cycles", "committed", "committed_loads",
                    "committed_stores", "committed_branches", "fetched",
                    "renamed", "issued", "branch_mispredicts",
                    "memory_violations", "ltp_parked", "ltp_released",
                    "ltp_enabled_cycles", "long_latency_loads",
                    "iq_writes", "rf_reads", "rf_writes",
                    "ltp_writes", "ltp_reads"):
            sig[key] = getattr(self, key)
        sig["ipc"] = self.ipc
        for name, occ in self.occupancies.items():
            sig[f"integral_{name}"] = occ.integral
            sig[f"peak_{name}"] = occ.peak
        return sig

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a plain dict (for caching / reports)."""
        out: Dict[str, float] = {}
        for key in ("cycles", "committed", "committed_loads",
                    "committed_stores", "committed_branches", "fetched",
                    "renamed", "issued", "branch_mispredicts",
                    "memory_violations", "ltp_parked", "ltp_released",
                    "ltp_forced_releases", "ltp_enabled_cycles",
                    "ltp_park_stalls", "classified_urgent",
                    "classified_non_urgent", "classified_non_ready",
                    "long_latency_loads", "stall_rob", "stall_iq",
                    "stall_regs", "stall_lsq", "stall_ltp_full",
                    "stall_frontend", "iq_writes", "iq_issues", "rf_reads",
                    "rf_writes", "ltp_writes", "ltp_reads", "uit_lookups",
                    "uit_inserts"):
            out[key] = getattr(self, key)
        out["ipc"] = self.ipc
        out["cpi"] = self.cpi
        out["ltp_enabled_fraction"] = self.ltp_enabled_fraction
        for name, occ in self.occupancies.items():
            out[f"avg_{name}"] = occ.average(self.cycles)
            out[f"peak_{name}"] = occ.peak
        out.update(self.extra)
        return out
