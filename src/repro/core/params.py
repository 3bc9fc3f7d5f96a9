"""Core (pipeline) configuration — defaults reproduce the paper's Table 1.

======================  =====================================
Frequency               3.4 GHz
Width F/D/R/I/W/C       8 / 8 / 8 / 6 / 8 / 8
ROB / IQ / LQ / SQ      256 / 64 / 64 / 32
Int / FP registers      128 / 128 (available, beyond architectural)
======================  =====================================

``None`` for any structure size means "effectively unlimited", which is
how the limit study (Section 4) isolates one resource at a time.
Internally unlimited maps to :data:`UNLIMITED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.memory.hierarchy import MemParams
from repro.util import ConfigError, check_fields

#: sentinel capacity for "unlimited" structures
UNLIMITED = 1 << 30

#: the ``latencies`` both engines read by name (others default to int_alu)
NAMED_LATENCIES = frozenset(("int_alu", "agu", "store", "forward"))


def cap(value: Optional[int]) -> int:
    """Map a structure-size parameter to its effective capacity."""
    return UNLIMITED if value is None else value


@dataclass
class CoreParams:
    """Out-of-order core configuration (Table 1 defaults)."""

    frequency_ghz: float = 3.4
    fetch_width: int = 8
    decode_width: int = 8
    rename_width: int = 8
    issue_width: int = 6
    writeback_width: int = 8
    commit_width: int = 8

    rob_size: Optional[int] = 256
    iq_size: Optional[int] = 64
    lq_size: Optional[int] = 64
    sq_size: Optional[int] = 32
    int_regs: Optional[int] = 128   # available (beyond architectural)
    fp_regs: Optional[int] = 128

    #: cycles between fetch and rename (front-end depth)
    frontend_depth: int = 5
    #: extra cycles to refill the front end after a mispredict redirect
    mispredict_penalty: int = 10
    #: commit-stall cycles charged per memory-order violation
    violation_penalty: int = 15

    #: functional-unit pool sizes per issue port group
    fu_counts: Dict[str, int] = field(default_factory=lambda: {
        "alu": 4, "mem": 2, "fp": 2, "muldiv": 1,
    })

    #: operation latencies in cycles (memory ops add cache access time)
    latencies: Dict[str, int] = field(default_factory=lambda: {
        "int_alu": 1, "int_mul": 3, "int_div": 20,
        "fp_add": 3, "fp_mul": 4, "fp_div": 24,
        "branch": 1, "jump": 1, "agu": 1, "store": 1, "nop": 1,
        "forward": 3,
    })

    mem: MemParams = field(default_factory=MemParams)

    #: watchdog: abort if a run exceeds this many cycles with no commit
    deadlock_cycles: int = 200_000

    #: rules besides the declared types' (:func:`repro.util.check_fields`)
    _RULES = {"mispredict_penalty": 0, "violation_penalty": 0,
              "mem": MemParams}

    def validate(self) -> "CoreParams":
        """Check every field's rule (``mem`` too) and that ``latencies``
        names what the engines read (``ValueError`` naming the field)."""
        check_fields(self, "core.")
        missing = NAMED_LATENCIES.difference(self.latencies)
        if missing:
            raise ConfigError(f"'core.latencies' must name "
                              f"{', '.join(sorted(missing))}")
        return self

    def but(self, **overrides) -> "CoreParams":
        """Return a copy with *overrides* applied (sweep helper)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Render the configuration like the paper's Table 1."""
        def fmt(value: Optional[int]) -> str:
            return "unlimited" if value is None else str(value)

        mem = self.mem
        rows = [
            ("Frequency", f"{self.frequency_ghz} GHz"),
            ("Width: F / D / R / I / W / C",
             f"{self.fetch_width} / {self.decode_width} / "
             f"{self.rename_width} / {self.issue_width} / "
             f"{self.writeback_width} / {self.commit_width}"),
            ("ROB / IQ / LQ / SQ",
             f"{fmt(self.rob_size)} / {fmt(self.iq_size)} / "
             f"{fmt(self.lq_size)} / {fmt(self.sq_size)}"),
            ("Int. / FP Registers",
             f"{fmt(self.int_regs)} / {fmt(self.fp_regs)}"),
            ("L1 Instruction / Data Caches",
             f"{mem.l1d_size // 1024}kB, 64B, {mem.l1d_ways}-way, LRU, "
             f"{mem.l1_latency}c"),
            ("L2 Unified Cache",
             f"{mem.l2_size // 1024}kB, 64B, {mem.l2_ways}-way, LRU, "
             f"{mem.l2_latency}c"),
            ("-- L2 Prefetcher",
             f"Stride prefetcher, degree {mem.prefetch_degree}"),
            ("L3 Shared Cache",
             f"{mem.l3_size // 1024 // 1024}MB, 64B, {mem.l3_ways}-way, "
             f"LRU, {mem.l3_latency}c"),
            ("DRAM", f"~{mem.dram_latency} cycles, "
                     f"1/{mem.dram_issue_interval} cycles bandwidth"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def baseline_params() -> CoreParams:
    """The paper's baseline: IQ 64, RF 128/128."""
    return CoreParams().validate()


def ltp_params() -> CoreParams:
    """The paper's proposed core: IQ 32, RF 96/96 (plus an LTP queue)."""
    return CoreParams(iq_size=32, int_regs=96, fp_regs=96).validate()
