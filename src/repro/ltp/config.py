"""LTP configuration.

The defaults correspond to the paper's proposed implementation
(Section 5): a Non-Urgent-only, 128-entry, 4-port queue with a 256-entry
UIT, paired with the reduced IQ 32 / RF 96 core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.ltp.uit import check_size
from repro.util import check_fields

MODES = ("nu", "nr", "nr+nu")
CLASSIFIERS = ("online", "oracle")
LL_PREDICTORS = ("oracle", "twolevel")
MONITORS = ("auto", "on", "off")
GRANULARITIES = ("pc", "dynamic")
WAKEUP_POLICIES = ("rob-position", "eager")


@dataclass
class LTPConfig:
    """Configuration of the Long Term Parking mechanism."""

    enabled: bool = False
    #: which classes park: Non-Urgent only ("nu"), Non-Ready only ("nr"),
    #: or both ("nr+nu")
    mode: str = "nu"
    #: queue capacity; None = unlimited (limit study)
    entries: Optional[int] = 128
    #: insertions/releases per cycle
    ports: int = 4
    #: "online" = UIT + iterative backward dependency analysis;
    #: "oracle" = perfect classification from a trace pre-pass
    classifier: str = "online"
    #: oracle urgency granularity: per static PC (what the UIT converges
    #: to) or per dynamic instruction
    oracle_granularity: str = "pc"
    uit_size: Optional[int] = 256
    uit_ways: int = 4
    #: long-latency load prediction: "oracle" or the Appendix's two-level
    #: hit/miss predictor
    ll_predictor: str = "oracle"
    #: ticket CAM size for Non-Ready tracking; None = unlimited
    tickets: Optional[int] = None
    #: DRAM-timer power management: "auto" (Section 5.2), always "on",
    #: or always "off"
    monitor: str = "auto"
    #: limit-study switches: also delay LQ/SQ allocation for parked ops
    park_loads: bool = False
    park_stores: bool = False
    #: registers / LSQ entries reserved for LTP releases (Section 5.4)
    release_reserve: int = 4
    #: False turns the structure into a WIB-style slice buffer (Lebeck
    #: et al. [1], Section 6 related work): parked instructions still
    #: allocate their registers at rename, so only IQ pressure is
    #: relieved — the comparison the paper draws against LTP
    defer_registers: bool = True
    #: Non-Urgent wakeup policy: the paper's ROB-position rule
    #: ("rob-position", Section 3.2) or release-as-soon-as-possible
    #: ("eager") — an ablation of the late-wakeup design choice
    wakeup_policy: str = "rob-position"

    #: rules besides the declared types' (:func:`repro.util.check_fields`)
    _RULES = {"mode": MODES, "classifier": CLASSIFIERS,
              "oracle_granularity": GRANULARITIES,
              "ll_predictor": LL_PREDICTORS, "monitor": MONITORS,
              "wakeup_policy": WAKEUP_POLICIES, "release_reserve": 0}

    def validate(self) -> "LTPConfig":
        """Check every field's rule and the UIT's sets (``ValueError``)."""
        check_fields(self, "ltp.")
        check_size(self.uit_size, self.uit_ways, name="'ltp.uit_size'")
        return self

    def but(self, **overrides) -> "LTPConfig":
        """Return a copy with *overrides* applied (sweep helper)."""
        return replace(self, **overrides)

    @property
    def parks_nu(self) -> bool:
        return self.enabled and self.mode in ("nu", "nr+nu")

    @property
    def parks_nr(self) -> bool:
        return self.enabled and self.mode in ("nr", "nr+nu")


def no_ltp() -> LTPConfig:
    """The baseline: LTP absent."""
    return LTPConfig(enabled=False)


def proposed_ltp() -> LTPConfig:
    """The paper's proposed design (Section 5.7).

    The two-level hit/miss predictor is used only to track long-latency
    instructions for the ROB-position wakeup rule (the NU-only design
    has no tickets).
    """
    return LTPConfig(enabled=True, mode="nu", entries=128, ports=4,
                     classifier="online", uit_size=256,
                     ll_predictor="twolevel").validate()


def limit_ltp(mode: str = "nr+nu") -> LTPConfig:
    """The limit study's ideal LTP: unlimited, oracle-classified.

    Parked memory operations also delay their LQ/SQ allocation, which is
    the idealisation Section 3.1 explores for the LQ/SQ sweeps.
    """
    return LTPConfig(enabled=True, mode=mode, entries=None, ports=1 << 20,
                     classifier="oracle", oracle_granularity="dynamic",
                     ll_predictor="oracle",
                     uit_size=None, tickets=None,
                     park_loads=True, park_stores=True).validate()


def wib_ltp() -> LTPConfig:
    """A WIB-style slice buffer built on the parking substrate.

    Instructions depending on in-flight long-latency loads are drained
    to a large side buffer and reinserted when the data returns — but,
    unlike LTP, their registers were already allocated at rename, so
    only the IQ benefits (Lebeck et al. [1]; the paper's Section 6
    contrast).
    """
    return LTPConfig(enabled=True, mode="nr", entries=None, ports=8,
                     classifier="oracle", ll_predictor="oracle",
                     uit_size=None, tickets=None, monitor="on",
                     defer_registers=False).validate()


# ======================================================================
# named presets — the single registry behind the CLI's --ltp choices
# and the API's `ltp_preset`
# ======================================================================
LTP_PRESETS: Dict[str, Callable[[], LTPConfig]] = {
    "none": no_ltp,
    "proposed": proposed_ltp,
    "limit-nu": lambda: limit_ltp("nu"),
    "limit-nr": lambda: limit_ltp("nr"),
    "limit-nrnu": lambda: limit_ltp("nr+nu"),
    "wib": wib_ltp,
}


def ltp_preset(name: str) -> LTPConfig:
    """Instantiate a named LTP preset (a fresh config every call)."""
    try:
        factory = LTP_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(LTP_PRESETS))
        raise KeyError(f"unknown LTP preset {name!r} "
                       f"(available: {known})") from None
    return factory()


def ltp_preset_names() -> List[str]:
    """Sorted names of every registered LTP preset."""
    return sorted(LTP_PRESETS)
