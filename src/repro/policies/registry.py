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

The registry holds names, factories and descriptions only; what a
policy needs (the trace oracle, a model artifact) and which structures
it clocks are stated on its class (see :mod:`repro.policies.base`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.ltp.config import LTPConfig
from repro.util import first_doc_line

#: the policy every config uses unless told otherwise — the paper's
#: LTP mechanism, which with ``ltp.enabled=False`` behaves exactly
#: like the stalling baseline.  Configs carrying this default serialize
#: without a ``policy`` field, so historical payloads and cache keys
#: are untouched.
DEFAULT_POLICY = "ltp"


@dataclass
class PolicyInfo:
    """One registered policy: its name, class and description."""

    name: str
    factory: Callable[..., object]
    description: str = ""


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(name: str,
                    description: Optional[str] = None) -> Callable:
    """Class decorator registering an :class:`AllocationPolicy`.

    The decorated class must be constructible as
    ``factory(ltp_config, dram_latency, oracle=...)`` (plus
    ``model=...`` when its ``needs_model`` is set).
    """

    def decorate(cls):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        doc = description
        if doc is None:
            doc = first_doc_line(cls.__doc__)
        cls.name = name
        _REGISTRY[name] = PolicyInfo(name=name, factory=cls,
                                     description=doc)
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


def policy_needs_oracle(name: str, ltp: LTPConfig) -> bool:
    """Does *name* want the trace oracle annotation for this config?"""
    return bool(policy_info(name).factory.needs_oracle(ltp))


def build_policy(name: str, ltp: LTPConfig, dram_latency: int,
                 oracle=None, model=None):
    """Instantiate the policy registered as *name*.

    *model* (a frozen artifact payload, or ``None`` for the committed
    default) is only forwarded to a class whose ``needs_model`` is set
    — everyone else keeps the historical factory signature.
    """
    factory = policy_info(name).factory
    if factory.needs_model:
        return factory(ltp, dram_latency, oracle=oracle, model=model)
    return factory(ltp, dram_latency, oracle=oracle)
