"""Typed simulation results for the API boundary.

A simulation's raw output is a flattened statistics dict;
:class:`SimResult` wraps that dict with the
configuration that produced it, the cache key, where the result came
from (fresh simulation vs. memory/disk cache), which backend executed
it and how long the simulation took.  Experiment aggregation code keeps
consuming the plain ``stats`` dict; scripting consumers get a stable
JSON shape from :meth:`SimResult.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.harness.config import SimConfig

#: where a result came from
SOURCE_SIMULATED = "simulated"
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
#: served from a persistent :class:`repro.api.store.ResultStore`
SOURCE_STORE = "store"
SOURCES = (SOURCE_SIMULATED, SOURCE_MEMORY, SOURCE_DISK, SOURCE_STORE)


@dataclass
class SimResult:
    """One simulation outcome: statistics plus provenance."""

    config: SimConfig
    #: flattened statistics (``SimStats.as_dict()`` plus workload/category)
    stats: Dict[str, Any]
    #: the configuration's stable cache key (``SimConfig.key()``)
    key: str
    #: "simulated", "memory" (in-process cache), "disk" (result cache)
    #: or "store" (persistent sweep result store)
    source: str = SOURCE_SIMULATED
    #: wall-clock seconds spent simulating (0.0 for cache hits)
    wall_time_s: float = 0.0
    #: name of the execution backend that produced the result
    #: ("cache" when no backend ran because a cache served it)
    backend: str = "serial"
    extra: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        """Dict-style access to the statistics (``result["cpi"]``)."""
        return self.stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self.stats

    @property
    def cached(self) -> bool:
        """True when the result was served from a cache, not simulated."""
        return self.source != SOURCE_SIMULATED

    @property
    def cpi(self) -> float:
        return float(self.stats["cpi"])

    @property
    def ipc(self) -> float:
        return float(self.stats["ipc"])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload: config, stats and provenance."""
        return {
            "schema": 1,
            "key": self.key,
            "source": self.source,
            "cached": self.cached,
            "backend": self.backend,
            "wall_time_s": round(self.wall_time_s, 6),
            "config": self.config.to_dict(),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimResult":
        """Rebuild a result from a :meth:`to_dict` payload."""
        config = SimConfig.from_dict(data["config"])
        return cls(config=config, stats=dict(data["stats"]),
                   key=data.get("key") or config.key(),
                   source=data.get("source", SOURCE_DISK),
                   wall_time_s=float(data.get("wall_time_s", 0.0)),
                   backend=data.get("backend", "serial"))


def cached_result(config: SimConfig, key: str, stats: Dict[str, Any],
                  source: str, backend: str = "serial") -> SimResult:
    """A :class:`SimResult` for a cache hit (no simulation time)."""
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}")
    return SimResult(config=config, stats=stats, key=key, source=source,
                     wall_time_s=0.0, backend=backend)
