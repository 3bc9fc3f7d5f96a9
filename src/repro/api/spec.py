"""Declarative sweep specifications.

A :class:`SweepSpec` names the workloads, the base core/LTP
configuration, and a set of *axes* — dotted parameter paths mapped to
the values to sweep — and expands their cross product into validated
:class:`~repro.harness.config.SimConfig` objects:

>>> spec = SweepSpec(workloads=["lattice_milc"],
...                  axes={"core.iq_size": [16, 32, 64],
...                        "ltp.enabled": [False, True]})
>>> len(spec.expand())
6

Axis paths address ``core.<field>``, ``ltp.<field>``, the allocation
``policy`` (:func:`repro.policies.policy_names`), or the ``warmup`` /
``measure`` budgets; unknown paths raise ``ValueError`` at expansion
time.  Specs round-trip through :meth:`to_dict` / :meth:`from_dict`, so
a sweep can live in a JSON file and be handed to
:meth:`repro.api.session.Session.sweep` as the user-facing entry point
— replacing the implicit plan/execute dance for ad-hoc sweeps.

For multi-worker execution, :meth:`SweepSpec.shard` partitions the
expanded product into ``count`` disjoint subsets whose union is exactly
:meth:`expand`.  Assignment depends only on each configuration's cache
key (``int(key, 16) % count``), never on its position, so K CI matrix
jobs — or K machines — each running ``spec.shard(i, K)`` cover the
sweep exactly once, and a point keeps its shard when unrelated axis
values are added to the spec.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import CoreParams
from repro.harness.config import SimConfig, core_from_dict, ltp_from_dict
from repro.ltp.config import LTPConfig
from repro.policies.registry import DEFAULT_POLICY

#: axis paths that address the simulation budgets directly
_BUDGET_AXES = ("warmup", "measure")
#: axis path that addresses the allocation policy
_POLICY_AXIS = "policy"
#: axis path that addresses the simulation engine
_ENGINE_AXIS = "engine"


def _axis_fields(cls: type) -> frozenset:
    return frozenset(f.name for f in dataclass_fields(cls))

_CORE_FIELDS = _axis_fields(CoreParams)
_LTP_FIELDS = _axis_fields(LTPConfig)


def _check_axis(path: str) -> None:
    if path in _BUDGET_AXES or path in (_POLICY_AXIS, _ENGINE_AXIS):
        return
    prefix, _, name = path.partition(".")
    if prefix == "core" and name in _CORE_FIELDS:
        return
    if prefix == "ltp" and name in _LTP_FIELDS:
        return
    raise ValueError(
        f"unknown sweep axis {path!r}: use 'core.<field>', 'ltp.<field>', "
        f"'policy', 'engine', 'warmup' or 'measure'")


def shard_of(key: str, count: int) -> int:
    """The shard (0-based) a cache key belongs to in a *count*-way split."""
    if count < 1:
        raise ValueError("shard count must be >= 1")
    return int(key, 16) % count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``"i/k"`` shard designator into ``(index, count)``.

    Accepts what the ``repro sweep --shard`` flag takes: a 0-based index
    and the total shard count, e.g. ``"0/4"`` … ``"3/4"``.
    """
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"bad shard designator {text!r}: expected 'index/count', "
            f"e.g. '0/4'") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"bad shard designator {text!r}: need 0 <= index < count")
    return index, count


def positive_int(text: str) -> int:
    """Parse a count that must be at least 1 (``--shards``, ``--batch-size``).

    An argparse ``type``: its ``ValueError`` becomes a usage error
    naming the flag (exit status 2).
    """
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def non_negative_int(text: str) -> int:
    """Parse a count that may be 0 (``--jobs``, ``--max-retries``).

    An argparse ``type``, like :func:`positive_int`.
    """
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


@dataclass
class SweepSpec:
    """A declarative cross-product sweep over simulation parameters."""

    workloads: Sequence[str]
    core: CoreParams = field(default_factory=CoreParams)
    ltp: LTPConfig = field(default_factory=LTPConfig)
    warmup: Optional[int] = None    # None = SimConfig default
    measure: Optional[int] = None
    #: base allocation policy; the ``"policy"`` axis overrides it per
    #: point (the default keeps pre-policy sweep ids stable)
    policy: str = DEFAULT_POLICY
    #: base simulation engine; the ``"engine"`` axis overrides it per
    #: point.  ``None`` runs the default engine and, like
    #: ``SimConfig.engine``, is omitted from payloads, so pre-engine
    #: sweep ids stay stable while a named engine keys separately
    engine: Optional[str] = None
    #: dotted parameter path -> values; expansion is the cross product
    #: in insertion order, workloads outermost
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: registered executor name the sweep prefers (``None`` = caller's
    #: choice); an execution detail, so it never enters the sweep id
    executor: Optional[str] = None

    def validate(self) -> "SweepSpec":
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")
        if self.executor is not None:
            from repro.api.executors import check_executor_name
            check_executor_name(self.executor)
        for path, values in self.axes.items():
            _check_axis(path)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"axis {path!r} needs a non-empty list of values")
        return self

    def expand(self) -> List[SimConfig]:
        """The sweep's validated configurations, in deterministic order."""
        self.validate()
        axis_paths = list(self.axes)
        value_lists = [self.axes[path] for path in axis_paths]
        configs: List[SimConfig] = []
        for workload in self.workloads:
            for combo in itertools.product(*value_lists):
                core_overrides: Dict[str, Any] = {}
                ltp_overrides: Dict[str, Any] = {}
                budgets: Dict[str, Any] = {}
                policy = self.policy
                engine = self.engine
                for path, value in zip(axis_paths, combo):
                    prefix, _, name = path.partition(".")
                    if path in _BUDGET_AXES:
                        budgets[path] = value
                    elif path == _POLICY_AXIS:
                        policy = str(value)
                    elif path == _ENGINE_AXIS:
                        engine = str(value)
                    elif prefix == "core":
                        core_overrides[name] = value
                    else:
                        ltp_overrides[name] = value
                config = SimConfig(
                    workload=workload,
                    core=(self.core.but(**core_overrides)
                          if core_overrides else self.core),
                    ltp=(self.ltp.but(**ltp_overrides)
                         if ltp_overrides else self.ltp),
                    policy=policy, engine=engine)
                if self.warmup is not None:
                    config.warmup = self.warmup
                if self.measure is not None:
                    config.measure = self.measure
                for name, value in budgets.items():
                    setattr(config, name, int(value))
                configs.append(config.validate())
        return configs

    def shard(self, index: int, count: int) -> List[SimConfig]:
        """The *index*-th of *count* disjoint partitions of :meth:`expand`.

        Membership is decided by each configuration's cache key alone
        (:func:`shard_of`), so the split is stable under re-expansion
        and the union over ``shard(0, k) … shard(k-1, k)`` is exactly
        the full sweep, each point appearing in precisely one shard.
        Expansion order is preserved within a shard.  Shards of an
        uneven split differ in size; some may be empty.
        """
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(
                f"shard index {index} out of range for count {count}")
        return [config for config in self.expand()
                if shard_of(config.key(), count) == index]

    def sweep_id(self) -> str:
        """Stable content hash identifying this sweep's definition.

        Derived from the same payload as :meth:`to_dict`, so equal specs
        — however constructed — share an id.  Result stores record it to
        refuse mixing results from different sweeps.  The ``executor``
        preference is stripped first: *where* a sweep runs must not
        change *what* it is, or stores could never be shared between
        serial, pooled and remote runs.
        """
        payload = self.to_dict()
        payload.pop("executor", None)
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __len__(self) -> int:
        """Number of configurations :meth:`expand` will produce."""
        points = 1
        for values in self.axes.values():
            points *= len(values)
        return len(self.workloads) * points

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "workloads": list(self.workloads),
            "core": asdict(self.core),
            "ltp": asdict(self.ltp),
            "warmup": self.warmup,
            "measure": self.measure,
            "axes": {path: list(values)
                     for path, values in self.axes.items()},
        }
        if self.policy != DEFAULT_POLICY:
            # sweep-id stability: default-policy specs serialize exactly
            # as pre-policy ones did
            payload["policy"] = self.policy
        if self.engine is not None:
            payload["engine"] = self.engine
        if self.executor is not None:
            payload["executor"] = self.executor
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        payload = dict(data)
        try:
            workloads = list(payload.pop("workloads"))
        except KeyError:
            raise ValueError("sweep payload is missing 'workloads'") \
                from None
        core_data = payload.pop("core", None)
        ltp_data = payload.pop("ltp", None)
        warmup = payload.pop("warmup", None)
        measure = payload.pop("measure", None)
        policy = payload.pop("policy", DEFAULT_POLICY)
        engine = payload.pop("engine", None)
        executor = payload.pop("executor", None)
        axes = payload.pop("axes", {}) or {}
        if payload:
            raise ValueError(f"unknown sweep fields: {sorted(payload)}")
        spec = cls(
            workloads=workloads,
            core=(core_from_dict(core_data) if core_data is not None
                  else CoreParams()),
            ltp=(ltp_from_dict(ltp_data) if ltp_data is not None
                 else LTPConfig()),
            warmup=None if warmup is None else int(warmup),
            measure=None if measure is None else int(measure),
            policy=str(policy),
            engine=None if engine is None else str(engine),
            executor=None if executor is None else str(executor),
            axes={path: list(values) for path, values in axes.items()})
        return spec.validate()
