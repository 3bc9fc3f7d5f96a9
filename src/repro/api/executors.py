"""Name-based registry of execution backends.

Executors self-register with the :func:`register_executor` decorator,
mirroring :mod:`repro.policies.registry`::

    @register_executor("remote", options=("workers", "max_retries"))
    class RemoteExecutor(ExecutorBackend):
        ...

A name then selects the executor end to end — ``Session(backend=
"serial")``, ``SweepSpec(executor="remote")``, ``repro sweep
--executor NAME`` — without any layer hard-coding the list.  The
built-ins (``serial``, ``process-pool``, ``remote``, ``mock``) are
imported lazily the first time the registry is queried, so module
import order never matters.

Each registration names the constructor *options* it accepts;
:func:`executor_from_options` is the one mapping from the CLI's
``--executor`` / ``--jobs`` / ``--workers`` / ``--max-retries`` /
``--batch-size`` flags to an executor, and rejects contradictory
combinations (``--executor serial --jobs 4``, ``--executor remote
--jobs 2``, ``--workers`` on a local executor) with a message naming
what the executor does take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.util import first_doc_line


@dataclass
class ExecutorInfo:
    """One registered executor: its factory plus registry metadata."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    #: constructor keyword options the factory accepts (the subset
    #: :func:`executor_from_options` is allowed to forward)
    options: Tuple[str, ...] = field(default_factory=tuple)


_REGISTRY: Dict[str, ExecutorInfo] = {}


def register_executor(name: str, description: Optional[str] = None,
                      options: Sequence[str] = ()) -> Callable:
    """Class decorator registering an executor under *name*.

    The decorated class must be constructible with the keyword
    *options* alone (every option optional); its instances must
    implement the :class:`repro.api.exec.ExecutorBackend` submission
    protocol.  ``description`` defaults to the class docstring's first
    line.
    """

    def decorate(cls):
        if name in _REGISTRY:
            raise ValueError(f"executor {name!r} is already registered")
        doc = description
        if doc is None:
            doc = first_doc_line(cls.__doc__)
        _REGISTRY[name] = ExecutorInfo(name=name, factory=cls,
                                       description=doc,
                                       options=tuple(options))
        return cls

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in executor definitions (registers them)."""
    import repro.api.exec  # noqa: F401  (import side effect)
    import repro.api.mock  # noqa: F401
    import repro.api.remote.executor  # noqa: F401


def executor_info(name: str) -> ExecutorInfo:
    """Look up a registered executor's metadata by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"unknown executor {name!r} (registered: {known})") from None


def check_executor_name(name: str) -> str:
    """Validate *name* against the registry (returns it unchanged)."""
    if not isinstance(name, str):
        raise ValueError(f"executor must be a string, got {type(name)}")
    executor_info(name)
    return name


def executor_names() -> List[str]:
    """Sorted names of every registered executor."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def executor_descriptions() -> Dict[str, str]:
    """Name -> one-line description for every registered executor."""
    _ensure_builtins()
    return {name: _REGISTRY[name].description
            for name in sorted(_REGISTRY)}


def build_executor(name: str, **options: Any):
    """Instantiate the executor registered as *name*.

    *options* must be a subset of the registration's declared options;
    unknown keywords raise ``ValueError`` naming what the executor
    does accept.
    """
    info = executor_info(name)
    unknown = sorted(set(options) - set(info.options))
    if unknown:
        accepted = ", ".join(info.options) or "none"
        raise ValueError(
            f"executor {name!r} does not take "
            f"{', '.join(unknown)} (accepted options: {accepted})")
    return info.factory(**options)


def executor_from_options(name: Optional[str] = None,
                          jobs: Optional[int] = None,
                          workers: Optional[Sequence[str]] = None,
                          max_retries: Optional[int] = None,
                          batch_size: Optional[int] = None):
    """Build the executor the CLI's execution flags select.

    ``name=None`` picks by ``jobs``: ``1`` is the in-process
    ``"serial"`` executor, anything else is ``"process-pool"``, which
    itself degrades to in-process execution when one worker or one
    item remains.  ``jobs`` ``None`` or ``0`` (its CLI spelling) means
    one worker per CPU, the pool default; ``jobs == 1`` composes with
    ``serial`` (it *is* one in-process worker).

    Maps the CLI-level knobs onto the registration's declared options
    and rejects contradictory combinations: ``jobs`` on an executor
    that has no worker pool (``serial --jobs 4``), ``workers`` on a
    local executor, pool knobs on the remote executor.
    """
    if name is None:
        name = "serial" if jobs == 1 else "process-pool"
    info = executor_info(name)
    provided: Dict[str, Any] = {"jobs": jobs, "workers": workers,
                                "max_retries": max_retries,
                                "batch_size": batch_size}
    if name == "serial" and provided["jobs"] == 1:
        provided["jobs"] = None  # serial is exactly one worker
    options: Dict[str, Any] = {}
    for key, value in provided.items():
        if value is None:
            continue
        if key not in info.options:
            accepted = ", ".join(info.options) or "none"
            raise ValueError(
                f"--executor {name} does not take --{key} "
                f"(accepted: {accepted})")
        options[key] = value
    if options.get("jobs") == 0:
        options["jobs"] = None  # 0 = one worker per CPU (pool default)
    return info.factory(**options)
