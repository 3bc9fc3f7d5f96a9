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
from repro.harness.config import (ENGINES, SimConfig, core_from_dict,
                                  ltp_from_dict)
from repro.ltp.config import LTPConfig
from repro.policies.registry import DEFAULT_POLICY, policy_names

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
    """Parse a count that must be at least 1 (``--batch-size``).

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

    def validate(self) -> "SweepSpec":
        """Check the spec's shape, its budgets (plain integers) and its
        policy and engine names, base and axis values alike, raising
        ``ValueError``."""
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")
        for path, values in self.axes.items():
            _check_axis(path)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"axis {path!r} needs a non-empty list of values")
        for path in _BUDGET_AXES:
            for value in self._values(path):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"sweep {path!r} must be an integer, "
                                     f"got {value!r}")
        known = policy_names()
        for policy in self._values(_POLICY_AXIS):
            if policy not in known:
                raise ValueError(
                    f"unknown allocation policy {policy!r} "
                    f"(registered: {', '.join(known)})")
        for engine in self._values(_ENGINE_AXIS):
            if engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}: expected one of "
                    f"{', '.join(ENGINES)}")
        return self

    def _values(self, path: str) -> tuple:
        """The base field *path* names (unless ``None``), then the
        values of its axis."""
        base = getattr(self, path)
        return ((base,) if base is not None else ()) + tuple(
            self.axes.get(path, ()))

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
                        policy = value
                    elif path == _ENGINE_AXIS:
                        engine = value
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
                    setattr(config, name, value)
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
        refuse mixing results from different sweeps.
        """
        text = json.dumps(self.to_dict(), sort_keys=True, default=str)
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
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """The spec a :meth:`to_dict` payload describes.

        A payload of the wrong shape raises ``ValueError`` naming the
        field: ``workloads`` must be a list of names, ``warmup`` and
        ``measure`` plain integers (or absent), ``axes`` an object
        mapping each path to a list of values.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a sweep payload must be an object, got "
                             f"{type(data).__name__}")
        payload = dict(data)
        try:
            workloads = payload.pop("workloads")
        except KeyError:
            raise ValueError("sweep payload is missing 'workloads'") \
                from None
        if (not isinstance(workloads, (list, tuple))
                or not all(isinstance(name, str) for name in workloads)):
            raise ValueError(f"sweep field 'workloads' must be a list of "
                             f"workload names, got {workloads!r}")
        core_data = payload.pop("core", None)
        ltp_data = payload.pop("ltp", None)
        warmup = payload.pop("warmup", None)
        measure = payload.pop("measure", None)
        policy = payload.pop("policy", DEFAULT_POLICY)
        engine = payload.pop("engine", None)
        axes = payload.pop("axes", {}) or {}
        if payload:
            raise ValueError(f"unknown sweep fields: {sorted(payload)}")
        if not isinstance(axes, Mapping):
            raise ValueError(f"sweep field 'axes' must map axis paths to "
                             f"lists of values, got {axes!r}")
        for path, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"sweep axis {path!r} must be a list of "
                                 f"values, got {values!r}")
        spec = cls(
            workloads=list(workloads),
            core=(core_from_dict(core_data) if core_data is not None
                  else CoreParams()),
            ltp=(ltp_from_dict(ltp_data) if ltp_data is not None
                 else LTPConfig()),
            warmup=warmup, measure=measure, policy=policy, engine=engine,
            axes={path: list(values) for path, values in axes.items()})
        return spec.validate()
