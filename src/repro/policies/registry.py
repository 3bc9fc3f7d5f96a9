"""Name-based registry of allocation policies.

Policies self-register with the :func:`register_policy` decorator::

    @register_policy("random-park", description="...")
    class RandomParkPolicy(ParkingPolicy):
        ...

``SimConfig(policy="random-park")`` then selects the policy end to end
— session execution, sweep axes (``{"policy": [...]}``), the
``repro run --policy`` flag — without any layer hard-coding the list.
The built-in policies live in :mod:`repro.policies.ltp`,
:mod:`repro.policies.scenarios` and :mod:`repro.policies.learned`,
imported lazily the first time the registry is queried so module
import order never matters.

``needs_oracle`` metadata tells the session layer whether to compute
the (expensive) trace oracle annotation before building the policy; it
may be a plain bool or a predicate over the run's
:class:`~repro.ltp.config.LTPConfig` (LTP itself only needs the oracle
while enabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.ltp.config import LTPConfig
from repro.util import first_doc_line

#: the policy every config uses unless told otherwise — the paper's
#: LTP mechanism, which with ``ltp.enabled=False`` behaves exactly
#: like the stalling baseline.  Configs carrying this default serialize
#: without a ``policy`` field, so historical payloads and cache keys
#: are untouched.
DEFAULT_POLICY = "ltp"

OracleNeed = Union[bool, Callable[[LTPConfig], bool]]


@dataclass
class PolicyInfo:
    """One registered policy: its factory plus registry metadata."""

    name: str
    factory: Callable[..., object]
    description: str = ""
    needs_oracle: OracleNeed = False
    #: does the policy occupy the parking queue (drives the energy
    #: model's LTP-structure charge)?  bool, or predicate over the
    #: run's LTPConfig
    parks: OracleNeed = False
    #: does the policy consult the UIT classifier CAM?
    uses_uit: OracleNeed = False
    #: does the policy consume a frozen model artifact (the config's
    #: ``model`` payload is handed to its factory)?
    needs_model: OracleNeed = False


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(name: str, description: Optional[str] = None,
                    needs_oracle: OracleNeed = False,
                    parks: OracleNeed = False,
                    uses_uit: OracleNeed = False,
                    needs_model: OracleNeed = False) -> Callable:
    """Class decorator registering an :class:`AllocationPolicy`.

    The decorated class must be constructible as
    ``factory(ltp_config, dram_latency, oracle=...)``.  ``parks`` and
    ``uses_uit`` describe which window structures the policy clocks
    (the energy model charges only those); like ``needs_oracle`` they
    may be plain bools or predicates over the run's
    :class:`~repro.ltp.config.LTPConfig`.
    """

    def decorate(cls):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        doc = description
        if doc is None:
            doc = first_doc_line(cls.__doc__)
        cls.name = name
        _REGISTRY[name] = PolicyInfo(name=name, factory=cls,
                                     description=doc,
                                     needs_oracle=needs_oracle,
                                     parks=parks, uses_uit=uses_uit,
                                     needs_model=needs_model)
        return cls

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in policy definitions (registers them)."""
    import repro.policies.ltp  # noqa: F401  (import side effect)
    import repro.policies.scenarios  # noqa: F401
    import repro.policies.learned  # noqa: F401


def policy_info(name: str) -> PolicyInfo:
    """Look up a registered policy's metadata by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"unknown allocation policy {name!r} "
            f"(registered: {known})") from None


def check_policy_name(name: str) -> str:
    """Validate *name* against the registry (returns it unchanged)."""
    if not isinstance(name, str):
        raise ValueError(f"policy must be a string, got {type(name)}")
    policy_info(name)
    return name


def policy_names() -> List[str]:
    """Sorted names of every registered allocation policy."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def policy_descriptions() -> Dict[str, str]:
    """Name -> one-line description for every registered policy."""
    _ensure_builtins()
    return {name: _REGISTRY[name].description
            for name in sorted(_REGISTRY)}


def _resolve_need(need: OracleNeed, ltp: LTPConfig) -> bool:
    if callable(need):
        return bool(need(ltp))
    return bool(need)


def policy_needs_oracle(name: str, ltp: LTPConfig) -> bool:
    """Does *name* want the trace oracle annotation for this config?"""
    return _resolve_need(policy_info(name).needs_oracle, ltp)


def policy_parks(name: str, ltp: LTPConfig) -> bool:
    """Does *name* occupy the parking queue under this config?"""
    return _resolve_need(policy_info(name).parks, ltp)


def policy_uses_uit(name: str, ltp: LTPConfig) -> bool:
    """Does *name* consult the UIT classifier under this config?"""
    return _resolve_need(policy_info(name).uses_uit, ltp)


def policy_needs_model(name: str, ltp: LTPConfig) -> bool:
    """Does *name* consume a frozen model artifact under this config?"""
    return _resolve_need(policy_info(name).needs_model, ltp)


def build_policy(name: str, ltp: LTPConfig, dram_latency: int,
                 oracle=None, model=None):
    """Instantiate the policy registered as *name*.

    *model* (a frozen artifact payload, or ``None`` for the committed
    default) is only forwarded to policies registered with
    ``needs_model`` — everyone else keeps the historical factory
    signature.
    """
    info = policy_info(name)
    if _resolve_need(info.needs_model, ltp):
        return info.factory(ltp, dram_latency, oracle=oracle, model=model)
    return info.factory(ltp, dram_latency, oracle=oracle)
