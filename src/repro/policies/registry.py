"""Name-based registry of allocation policies.

Policies self-register with the :func:`register_policy` decorator::

    @register_policy("random-park", description="...")
    class RandomParkPolicy(AllocationPolicy):
        ...

``SimConfig(policy="random-park")`` then selects the policy end to end
— session execution, sweep axes (``{"policy": [...]}``), the
``repro run --policy`` flag — without any layer hard-coding the list.
The built-in policies live in :mod:`repro.policies.ltp`,
:mod:`repro.policies.scenarios` and :mod:`repro.policies.learned`,
imported lazily the first time the registry is queried so module
import order never matters.

The registry maps each name to its class; the decorator writes the
name and description on the class, and what a policy needs (the trace
oracle, a model artifact) and which structures it clocks are stated
there too (see :mod:`repro.policies.base`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.ltp.config import LTPConfig
from repro.util import first_doc_line

#: the policy every config uses unless told otherwise — the paper's
#: LTP mechanism, which with ``ltp.enabled=False`` behaves exactly
#: like the stalling baseline.  Configs carrying this default serialize
#: without a ``policy`` field, so historical payloads and cache keys
#: are untouched.
DEFAULT_POLICY = "ltp"

#: name -> registered policy class
_REGISTRY: Dict[str, type] = {}


def register_policy(name: str,
                    description: Optional[str] = None) -> Callable:
    """Class decorator registering an :class:`AllocationPolicy`.

    The decorated class must be constructible as
    ``cls(ltp_config, dram_latency, oracle=...)`` (plus ``model=...``
    when its ``needs_model`` is set).  *description* defaults to the
    first line of the class docstring.
    """

    def decorate(cls):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        cls.name = name
        cls.description = (first_doc_line(cls.__doc__)
                           if description is None else description)
        _REGISTRY[name] = cls
        return cls

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in policy definitions (registers them)."""
    import repro.policies.ltp  # noqa: F401  (import side effect)
    import repro.policies.scenarios  # noqa: F401
    import repro.policies.learned  # noqa: F401


def policy_class(name: str) -> type:
    """The policy class registered as *name*."""
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
    policy_class(name)
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
    return bool(policy_class(name).needs_oracle(ltp))


def build_policy(name: str, ltp: LTPConfig, dram_latency: int,
                 oracle=None, model=None):
    """Instantiate the policy registered as *name*.

    *model* (a frozen artifact payload, or ``None`` for the committed
    default) is only forwarded to a class whose ``needs_model`` is set
    — everyone else keeps the historical constructor signature.
    """
    cls = policy_class(name)
    if cls.needs_model:
        return cls(ltp, dram_latency, oracle=oracle, model=model)
    return cls(ltp, dram_latency, oracle=oracle)
