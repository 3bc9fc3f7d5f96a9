"""Long Term Parking: the paper's contribution.

* :mod:`repro.ltp.config` — the LTP design space (mode, entries, ports,
  classifier, tickets, monitor).
* :mod:`repro.ltp.uit` — Urgent Instruction Table.
* :mod:`repro.ltp.classifier` — online (UIT + iterative backward
  dependency analysis) and oracle urgency classification.
* :mod:`repro.ltp.oracle` — ground-truth Urgent/Non-Ready sets.
* :mod:`repro.ltp.predictor` — two-level hit/miss predictor.
* :mod:`repro.ltp.tickets` — ticket CAM for Non-Ready wakeup.
* :mod:`repro.ltp.queue` — the parking structure.
* :mod:`repro.ltp.monitor` — DRAM-timer power management.

The pipeline-facing integration of these structures is
:class:`repro.policies.LTPPolicy`.
"""

from repro.ltp.classifier import OnlineClassifier, OracleClassifier
from repro.ltp.config import (LTPConfig, limit_ltp, no_ltp,
                              proposed_ltp, wib_ltp)
from repro.ltp.monitor import DramTimerMonitor
from repro.ltp.oracle import OracleInfo, annotate_trace
from repro.ltp.predictor import HitMissPredictor
from repro.ltp.queue import NO_BOUNDARY, LTPQueue
from repro.ltp.tickets import TicketPool, TicketTracker
from repro.ltp.uit import UrgentInstructionTable

__all__ = [
    "DramTimerMonitor",
    "HitMissPredictor",
    "LTPConfig",
    "LTPQueue",
    "NO_BOUNDARY",
    "OnlineClassifier",
    "OracleClassifier",
    "OracleInfo",
    "TicketPool",
    "TicketTracker",
    "UrgentInstructionTable",
    "annotate_trace",
    "limit_ltp",
    "no_ltp",
    "wib_ltp",
    "proposed_ltp",
]
