"""repro.api.remote — cross-machine execution over JSON/TCP.

The remote execution subsystem, layered on the futures submission
protocol (:mod:`repro.api.exec`):

* :mod:`~repro.api.remote.protocol` — the wire format every endpoint
  shares: length-prefixed JSON frames over TCP.
* :mod:`~repro.api.remote.worker` — :class:`WorkerServer`, the
  ``repro worker`` process: accepts serialized
  :class:`~repro.harness.config.SimConfig` work items and returns
  result/error outcomes, heartbeating during long simulations.
* :mod:`~repro.api.remote.executor` — :class:`RemoteExecutor`,
  named ``"remote"``: dispatches submitted items across a
  static worker list with heartbeat timeouts and bounded retries that
  reassign failed items to healthy workers.
"""

from repro.api.remote.executor import RemoteExecutor, WorkerFleetError
from repro.api.remote.protocol import (ProtocolError, format_address,
                                       parse_address)
from repro.api.remote.worker import WorkerServer

__all__ = [
    "ProtocolError",
    "RemoteExecutor",
    "WorkerFleetError",
    "WorkerServer",
    "format_address",
    "parse_address",
]
