"""The two reference policies: the paper's LTP and the stalling baseline.

:class:`LTPPolicy` re-expresses the historical pipeline/controller
coupling as an :class:`~repro.policies.base.AllocationPolicy`: every
hook forwards to the wrapped :class:`~repro.ltp.controller.LTPController`
as a pre-bound method, so the refactored pipeline performs exactly the
same operations in exactly the same order as the pre-seam monolith —
the differential tests assert bit-identical statistics.

:class:`BaselineStallPolicy` is the no-LTP machine made explicit: it
wraps a *disabled* controller, so rename still classifies instructions
(the UIT activity and urgency tallies the disabled-LTP baseline always
recorded) but every instruction allocates at rename and stalls when a
resource is full.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ltp.config import LTPConfig
from repro.ltp.controller import LTPController
from repro.ltp.oracle import OracleInfo
from repro.policies.base import AllocationPolicy
from repro.policies.registry import register_policy


@register_policy(
    "ltp",
    needs_oracle=lambda ltp: ltp.enabled,
    parks=lambda ltp: ltp.enabled,
    uses_uit=lambda ltp: ltp.enabled,
    description="the paper's Long Term Parking controller "
                "(criticality-aware deferred allocation); degrades to "
                "the stalling baseline when ltp.enabled is False")
class LTPPolicy(AllocationPolicy):
    """Long Term Parking, driven through the policy seam.

    When *controller* is supplied (legacy ``Pipeline(controller=...)``
    wiring and tests) it is adopted as-is; otherwise one is built from
    *ltp*.  Structural attributes (ports, reserve, park flags) mirror
    *ltp* exactly as the pre-seam pipeline read them off its own
    config.
    """

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None,
                 controller: Optional[LTPController] = None) -> None:
        super().__init__(ltp, dram_latency)
        if controller is None:
            controller = LTPController(ltp, dram_latency, oracle=oracle)
        self.controller = controller
        self.queue = controller.queue
        self.monitor = controller.monitor
        # pre-bound forwarding: the pipeline's per-record calls resolve
        # to the controller's bound methods with no wrapper frame, so
        # the hot path costs exactly what the monolith did
        self.observe_rename = controller.observe_rename
        self.may_allocate = controller.decide
        self.park = controller.park
        self.on_release_scan = controller.next_release
        self.release = controller.release
        self.on_tag_known = controller.on_tag_known
        self.on_load_complete = controller.on_load_complete
        self.on_commit = controller.on_commit
        self.on_violation = controller.on_violation
        self.on_dram_demand_access = controller.on_dram_demand_access
        self.stall_marks = controller.stall_marks
        self.repeat_stall = controller.repeat_stall

    #: checked against LTPController.observe_rename / decide: see
    #: LTPController.stall_marks for what the guard covers
    counter_only_stalls = True

    @property
    def release_reserve(self) -> int:
        config = self.ltp_config
        return config.release_reserve if config.enabled else 0

    @property
    def ports(self) -> int:
        return self.ltp_config.ports

    @property
    def park_loads(self) -> bool:
        return self.ltp_config.park_loads

    @property
    def park_stores(self) -> bool:
        return self.ltp_config.park_stores

    @property
    def defer_registers(self) -> bool:
        return self.ltp_config.defer_registers

    def warm_from_trace(self, warmup_slice: Sequence,
                        long_latency_flags: Optional[Sequence]) -> None:
        if long_latency_flags is not None and self.ltp_config.enabled:
            self.controller.warm_from_trace(warmup_slice,
                                            long_latency_flags)

    def stats_extra(self, stats) -> None:
        classifier = self.controller.classifier
        uit = getattr(classifier, "uit", None)
        if uit is not None:
            stats.uit_lookups = uit.lookups
            stats.uit_inserts = uit.inserts
        stats.ltp_park_stalls = self.controller.park_stalls


@register_policy(
    "baseline-stall",
    description="allocate everything at rename and stall on any full "
                "resource (LTP off), regardless of the LTP config")
class BaselineStallPolicy(LTPPolicy):
    """The conventional machine: rename-time allocation, no parking.

    Built on a disabled controller so classification side effects (UIT
    lookups, urgency tallies) match the historical no-LTP runs
    bit-for-bit, while the LTP mechanism itself is forced off even if
    the run's LTP config says ``enabled=True``.
    """

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        disabled = ltp if not ltp.enabled else ltp.but(enabled=False)
        super().__init__(disabled, dram_latency, oracle=oracle)
