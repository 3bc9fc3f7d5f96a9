"""repro.api — the supported programmatic surface of the reproduction.

The API layer is organised around four ideas:

* :class:`Session` — owns the trace/oracle/result caches and an
  execution backend; the one object services and tests hold on to.
  :func:`default_session` is the process-global instance the
  experiment harness and the CLI run on.
* Declarative specs — :class:`~repro.harness.config.SimConfig`
  round-trips through dicts, and :class:`SweepSpec` expands axis
  products into validated configuration lists.
* :class:`ExecutorBackend` — the execution layer
  (:mod:`repro.api.exec`): one ``run(session, items, emit)``
  generator per executor that yields each point's outcome as it
  lands, with lifecycle events and bounded retries.  Executors keep
  only their options, no per-call state.  One class implements it,
  :class:`PoolExecutor`, chosen by ``jobs`` alone (the CLI's
  ``--jobs``): ``jobs=1`` runs in-process, anything else over worker
  processes.  ``Session(backend=...)`` and the ``backend=`` of
  ``run_many``/``sweep`` also take the names ``"serial"`` (``jobs=1``)
  and ``"process-pool"`` (one worker per CPU).  Anything else (a
  custom subclass, a test double) is passed as an instance.  The layer is
  single-threaded: outcomes land on the thread iterating ``run()``.
* :class:`SimResult` — typed results with cache provenance and wall
  time, JSON-ready via ``to_dict()``.
* :class:`ResultStore` — durable, append-only JSONL stores of sweep
  results; with :meth:`SweepSpec.shard` and ``Session.sweep(store=,
  shard=)`` they make sweeps shardable across machines and resumable
  (:func:`merge_stores` recombines shard artifacts).
* :class:`SweepInspector` — online sweep QA (:mod:`repro.api.inspect`):
  validates every landed result against hard stat invariants and
  per-workload outlier baselines, raises operational alarms from the
  lifecycle-event stream, and persists confirmed anomalies as
  :class:`Annotation` rows that quarantine their key — a resumed
  sweep re-simulates exactly the quarantined points.  Enabled with
  ``Session.run_many/sweep(inspect=True)``.
* Allocation policies — :mod:`repro.policies` owns *when* resources
  are claimed; ``SimConfig(policy=...)`` / a ``"policy"`` sweep axis
  selects a registered policy (:func:`policy_names`).

Quick start::

    from repro.api import Session, SweepSpec

    with Session() as session:
        spec = SweepSpec(workloads=["lattice_milc"],
                         axes={"core.iq_size": [16, 32, 64]})
        for result in session.sweep(spec):
            print(result.config.core.iq_size, result.cpi)
"""

from repro.api.exec import (ExecEvent, ExecutorBackend, PoolExecutor,
                            WorkerFailure, as_executor)
from repro.api.inspect import SweepInspector, stat_invariants
from repro.api.registry import (Experiment, experiment, experiment_names,
                                get_experiment, renderer)
from repro.api.result import SimResult
from repro.api.session import Session, default_session, set_default_session
from repro.api.spec import SweepSpec, parse_shard
from repro.api.store import (Annotation, ResultStore, merge_stores,
                             summarize)
from repro.harness.config import SimConfig
from repro.ltp.config import ltp_preset, ltp_preset_names
from repro.policies import (DEFAULT_POLICY, AllocationPolicy, build_policy,
                            policy_descriptions, policy_names)

__all__ = [
    "AllocationPolicy",
    "Annotation",
    "DEFAULT_POLICY",
    "ExecEvent",
    "Experiment",
    "ExecutorBackend",
    "PoolExecutor",
    "ResultStore",
    "Session",
    "SimConfig",
    "SimResult",
    "SweepInspector",
    "SweepSpec",
    "WorkerFailure",
    "as_executor",
    "build_policy",
    "default_session",
    "experiment",
    "experiment_names",
    "get_experiment",
    "ltp_preset",
    "ltp_preset_names",
    "merge_stores",
    "parse_shard",
    "policy_descriptions",
    "policy_names",
    "renderer",
    "set_default_session",
    "stat_invariants",
    "summarize",
]
