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
``policy`` (:func:`repro.policies.policy_names`), the ``engine``, or the
``warmup`` / ``measure`` budgets.  Each axis value is read like the same
field of a config payload and each point is checked by
:meth:`~repro.harness.config.SimConfig.validate`: an unknown path or a
bad value raises ``ValueError`` at expansion time.  Specs round-trip
through :meth:`to_dict` / :meth:`from_dict`, so a sweep can live in a
JSON file and be handed to
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
import math
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import LTPConfig
from repro.policies.registry import DEFAULT_POLICY
from repro.workloads import ALIASES, workload_names

#: the fields an axis path may address, by section ("" is the config
#: itself): ``core.<field>``, ``ltp.<field>`` and four config fields
_AXIS_FIELDS = {
    "": frozenset(("warmup", "measure", "policy", "engine")),
    "core": frozenset(f.name for f in dataclass_fields(CoreParams)),
    "ltp": frozenset(f.name for f in dataclass_fields(LTPConfig)),
}
#: a payload's fields besides ``workloads`` and ``axes``: the base
_BASE_FIELDS = _AXIS_FIELDS[""] | {"core", "ltp"}


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
        """Check the spec's own shape (registered workloads, known axis
        paths, non-empty value lists), then each point it expands to by
        :meth:`SimConfig.validate`; raises ``ValueError`` naming the
        field."""
        self.expand()
        return self

    def expand(self) -> List[SimConfig]:
        """The sweep's validated configurations, in deterministic order;
        each is read like a config payload (:meth:`SimConfig.from_dict`):
        the base fields with the point's axis values in place."""
        if not isinstance(self.workloads, (list, tuple)):
            raise ValueError(f"sweep field 'workloads' must be a list of "
                             f"workload names, got {self.workloads!r}")
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")
        known = set(workload_names()) | set(ALIASES)  # as they stand now
        for name in self.workloads:
            if not isinstance(name, str) or name not in known:
                raise ValueError(
                    f"sweep field 'workloads' names unknown workload "
                    f"{name!r} (registered: {', '.join(workload_names())})")
        if not isinstance(self.axes, Mapping):
            raise ValueError(f"sweep field 'axes' must map axis paths to "
                             f"lists of values, got {self.axes!r}")
        for path, values in self.axes.items():
            section, _, name = str(path).rpartition(".")
            if name not in _AXIS_FIELDS.get(section, ()):
                raise ValueError(
                    f"unknown sweep axis {path!r}: use 'core.<field>', "
                    f"'ltp.<field>', 'policy', 'engine', 'warmup' or "
                    f"'measure'")
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"sweep axis {path!r} needs a non-empty list of values")
        base = {name: value for name, value in self.to_dict().items()
                if name in _BASE_FIELDS and value is not None}
        paths = [path.rpartition(".") for path in self.axes]
        configs: List[SimConfig] = []
        for workload in self.workloads:
            for combo in itertools.product(*self.axes.values()):
                payload = dict(base, workload=workload,
                               core=dict(base["core"]),
                               ltp=dict(base["ltp"]))
                for (section, _, name), value in zip(paths, combo):
                    (payload[section] if section else payload)[name] = value
                configs.append(SimConfig.from_dict(payload))
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
        if not 0 <= index < count:
            raise ValueError(f"shard {index}/{count}: need 0 <= index < "
                             f"count")
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
        return len(self.workloads) * math.prod(map(len, self.axes.values()))

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
        """The spec a :meth:`to_dict` payload describes, validated; its
        base fields are read like a config payload (``null``: the
        default).  A bad payload raises ``ValueError`` naming the field.
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
        axes = payload.pop("axes", None) or {}
        unknown = payload.keys() - _BASE_FIELDS
        if unknown:
            raise ValueError(f"unknown sweep fields: {sorted(unknown)}")
        # the base names no workload: the spec's workloads come later
        base = SimConfig.from_dict(dict(
            {name: value for name, value in payload.items()
             if value is not None}, workload=""))
        return cls(workloads=workloads, core=base.core, ltp=base.ltp,
                   warmup=payload.get("warmup"),
                   measure=payload.get("measure"), policy=base.policy,
                   engine=base.engine, axes=axes).validate()
