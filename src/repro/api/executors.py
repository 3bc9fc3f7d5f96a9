"""The one mapping from an executor name to an executor.

Two executors have names: ``serial`` (in-process) and ``process-pool``
(a pool of worker processes).  :func:`executor_from_options` is the
only code that turns a name into one; :data:`EXECUTORS` lists each
with the options it takes.  ``Session(backend="serial")``,
``run_many(..., backend=NAME)`` and ``repro sweep --executor NAME``
all resolve through it (strings reach it through
:func:`repro.api.exec.as_executor`).  Any other executor —
:class:`~repro.api.mock.MockExecutor`, a custom subclass — is passed
as an instance.

:func:`executor_from_options` also maps the CLI's ``--jobs`` /
``--max-retries`` / ``--batch-size`` flags onto the chosen executor,
and rejects contradictory combinations (``--executor serial --jobs
4``) with a message naming what the executor does take.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from repro.api.exec import ExecutorBackend, PoolExecutor, SerialExecutor

#: name -> (executor class, the options its constructor takes from
#: the CLI flags)
EXECUTORS: Dict[str, Tuple[Type[ExecutorBackend], Tuple[str, ...]]] = {
    "serial": (SerialExecutor, ("max_retries", "batch_size")),
    "process-pool": (PoolExecutor, ("jobs", "max_retries", "batch_size")),
}


def executor_from_options(name: Optional[str] = None,
                          jobs: Optional[int] = None,
                          max_retries: Optional[int] = None,
                          batch_size: Optional[int] = None
                          ) -> ExecutorBackend:
    """Build the executor *name* and the CLI's execution flags select.

    ``name=None`` picks by ``jobs``: ``1`` is the in-process
    ``"serial"`` executor, anything else is ``"process-pool"``, which
    itself degrades to in-process execution when one worker or one
    item remains.  ``jobs`` ``None`` or ``0`` (its CLI spelling) means
    one worker per CPU, the pool default; ``jobs == 1`` composes with
    ``serial`` (it *is* one in-process worker).

    Rejects an unknown name, and ``jobs`` on an executor that has no
    worker pool (``serial --jobs 4``).
    """
    if name is None:
        name = "serial" if jobs == 1 else "process-pool"
    try:
        cls, accepted = EXECUTORS[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r} (choose from: "
                         f"{', '.join(EXECUTORS)})") from None
    provided: Dict[str, Any] = {"jobs": jobs, "max_retries": max_retries,
                                "batch_size": batch_size}
    if name == "serial" and provided["jobs"] == 1:
        provided["jobs"] = None  # serial is exactly one worker
    options: Dict[str, Any] = {}
    for key, value in provided.items():
        if value is None:
            continue
        if key not in accepted:
            raise ValueError(
                f"--executor {name} does not take --{key} "
                f"(accepted: {', '.join(accepted)})")
        options[key] = value
    if options.get("jobs") == 0:
        options["jobs"] = None  # 0 = one worker per CPU (pool default)
    return cls(**options)
