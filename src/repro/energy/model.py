"""First-order IQ/RF/LTP energy model (Section 5.5 proportionalities).

The paper scales McPAT/CACTI numbers with first-order arguments:

* the IQ's power is proportional to its comparator count — entries times
  the sum of its write, read (issue) and search ports (a CAM cost),
* the register file's cost scales with entries times ports (a RAM cost),
* the LTP queue is a plain RAM FIFO: entries times its few ports, at a
  much lower per-entry-port cost than the IQ's CAM,
* the UIT is a small tag CAM.

Absolute joules are not reproducible without the authors' McPAT
configuration, so the model works in abstract energy units and every
result is reported *relative to the baseline configuration*, which is
what Figure 10 plots (ED2P deltas).  Each structure's per-cycle cost is
half static, half scaled by utilization, so an LTP that is power-gated
off (the DRAM-timer monitor) burns only its static share when idle.

Constants below are calibrated so the baseline IQ:RF energy split
roughly matches the 21264-derived split the paper cites ([9]: IQ ~18% of
core power, RF smaller per port).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.params import CoreParams
from repro.ltp.config import LTPConfig
from repro.policies.registry import DEFAULT_POLICY, policy_class

#: architectural registers per class (the RF holds available + architectural)
ARCH_REGS = 32

#: energy per entry-port per cycle, by structure type (abstract units).
#: The IQ's CAM comparators dominate (the paper cites the IQ at ~18% of
#: core power [9], well above the RF), so the per-entry-port CAM cost is
#: much higher than the RF's RAM cost.
COST_IQ_CAM = 1.0
COST_RF_RAM = 0.12
COST_LTP_RAM = 0.12
COST_UIT_CAM = 0.12

#: capacity assumed when a structure is configured "unlimited"
_UNLIMITED_EQUIV = 1024


@dataclass
class EnergyBreakdown:
    """Energy of the window structures for one run, in abstract units."""

    iq: float
    rf: float
    ltp: float
    uit: float
    cycles: int

    @property
    def total(self) -> float:
        return self.iq + self.rf + self.ltp + self.uit

    @property
    def ed2p(self) -> float:
        """Energy x delay^2 (delay in cycles; frequency is constant)."""
        return self.total * float(self.cycles) ** 2


def _effective(size: Optional[int]) -> int:
    return _UNLIMITED_EQUIV if size is None else size


def iq_ports(params: CoreParams) -> int:
    """Write + read + search ports (Section 5.5: 8 + 6 + 8 baseline)."""
    return (params.rename_width + params.issue_width + params.rename_width)


def rf_ports(params: CoreParams) -> int:
    """Read + write ports (Section 5.5: 16 + 8 baseline)."""
    return 2 * params.issue_width + params.writeback_width + 2


def compute_energy(params: CoreParams, ltp: LTPConfig,
                   result: dict,
                   policy: str = DEFAULT_POLICY) -> EnergyBreakdown:
    """Energy of IQ + RF (+ LTP structures) over a finished run.

    *result* is the flattened statistics dict a run produces
    (:meth:`repro.core.stats.SimStats.as_dict`); only the occupancy
    averages, cycle count and LTP-enabled fraction are consumed.

    *policy* names the run's allocation policy; its class states
    which window structures are charged (``parks`` / ``uses_uit``)
    and whether the DRAM-timer monitor power-gates them
    (``power_gated``).  The run's occupancy statistics — ``avg_ltp``,
    ``ltp_enabled_fraction`` — feed the utilization terms, so
    ``oracle-park``/``depth-park`` runs get queue-energy estimates and
    ``baseline-stall`` is never charged for a mechanism it forces off.
    Only the ``ltp`` policy's monitor power-gates the queue; other
    parking policies clock it continuously.
    """
    cycles = max(1, int(result["cycles"]))

    # First-order scaling (Section 5.5): IQ power is proportional to its
    # comparator count (entries x ports) and RF power to entries x
    # ports.  No utilization compensation — shrinking the structure
    # shrinks every bitline, comparator and wordline it clocks.
    iq_entries = _effective(params.iq_size)
    iq_energy = COST_IQ_CAM * iq_entries * iq_ports(params) * cycles

    rf_entries = (_effective(params.int_regs) + ARCH_REGS
                  + _effective(params.fp_regs) + ARCH_REGS)
    rf_energy = COST_RF_RAM * rf_entries * rf_ports(params) * cycles

    cls = policy_class(policy)
    ltp_energy = 0.0
    uit_energy = 0.0
    enabled_frac = (result["ltp_enabled_fraction"]
                    if cls.power_gated else 1.0)
    if cls.parks(ltp):
        ltp_entries = _effective(ltp.entries)
        ltp_static = COST_LTP_RAM * ltp_entries * ltp.ports
        ltp_util = min(1.0, result["avg_ltp"] / max(1, ltp_entries))
        # power-gated when the DRAM-timer monitor is off: only a small
        # always-on share remains
        ltp_energy = ltp_static * cycles * (
            0.1 + enabled_frac * (0.5 + 0.4 * ltp_util))
    if cls.uses_uit(ltp):
        uit_entries = _effective(ltp.uit_size)
        uit_static = COST_UIT_CAM * uit_entries * 2  # lookup + insert port
        uit_energy = uit_static * cycles * (0.1 + 0.9 * enabled_frac)

    return EnergyBreakdown(iq=iq_energy, rf=rf_energy, ltp=ltp_energy,
                           uit=uit_energy, cycles=cycles)


def relative_ed2p(test: EnergyBreakdown, base: EnergyBreakdown) -> float:
    """ED2P of *test* relative to *base*, as a percent delta.

    Negative values mean the test configuration improves on the baseline
    (this is the y-axis of Figure 10's bottom row).
    """
    if base.ed2p == 0:
        return 0.0
    return (test.ed2p / base.ed2p - 1.0) * 100.0


def relative_performance(test_cycles: int, base_cycles: int) -> float:
    """Performance of *test* relative to *base*, as a percent delta.

    Matches the paper's "Performance Comp. to Base (%)": negative means
    slower than the baseline.
    """
    if test_cycles <= 0:
        return 0.0
    return (base_cycles / test_cycles - 1.0) * 100.0
