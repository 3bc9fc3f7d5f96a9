"""Simulation-run configuration, declarative (de)serialization, keys.

:class:`SimConfig` is the unit of work the whole harness revolves
around.  It round-trips through plain dicts — ``to_dict`` /
``from_dict`` — so sweeps can be declared in JSON/YAML and shipped
across process or service boundaries, and its :meth:`SimConfig.key`
content hash (of the same payload shape) keys the result caches.
Unknown fields in a payload raise ``ValueError`` so schema drift is
caught at the boundary rather than as silently-ignored settings.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.params import CoreParams
from repro.ltp.config import LTPConfig
from repro.memory.hierarchy import MemParams
from repro.policies.registry import DEFAULT_POLICY, check_policy_name

#: default instruction budgets; the paper warms for 250 M and measures
#: 10 M per SimPoint on gem5 — a pure-Python cycle model is ~4 orders of
#: magnitude slower, so the defaults measure a few thousand instructions
#: of steady-state loop execution (scale with REPRO_MEASURE_INSTS /
#: REPRO_WARMUP_INSTS).
DEFAULT_WARMUP = int(os.environ.get("REPRO_WARMUP_INSTS", "6000"))
DEFAULT_MEASURE = int(os.environ.get("REPRO_MEASURE_INSTS", "2500"))

#: config-payload schema version (bump when the dict shape changes in a
#: way that must invalidate cached results)
CONFIG_SCHEMA = 3

#: simulation engines: the reference object-graph pipeline and the
#: columnar struct-of-arrays kernel (:mod:`repro.core.kernel`), which
#: produces bit-identical statistics and runs every point that names
#: no engine
ENGINES = ("object", "kernel")
DEFAULT_ENGINE = "kernel"


@functools.cache
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _expand(value: Any) -> Any:
    """Key-text fallback: a dataclass is the dict of its fields (as
    ``asdict`` gives it), anything else its ``str``."""
    if is_dataclass(value) and not isinstance(value, type):
        return {name: getattr(value, name)
                for name in _field_names(type(value))}
    return str(value)


#: ``json.dumps(<to_dict()>, sort_keys=True, default=str)``'s encoder,
#: fed the live payload
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=_expand)

#: key texts of ``core``/``engine``/``ltp`` values by ``repr`` (fig11's
#: 135 points share 2 core and 8 LTP values), cleared when full
_FRAGMENTS: Dict[str, str] = {}
_FRAGMENTS_MAX = 512


def _fragment(value: Any) -> str:
    """``_KEY_ENCODER``'s text for *value*, shared by values of one
    ``repr``, which lists every dataclass field, tells apart values
    whose JSON differs (``1``/``1.0``/``True``, ``0.0``/``-0.0``) and
    is recomputed per call (a value mutated in place misses)."""
    memo = repr(value)
    text = _FRAGMENTS.get(memo)
    if text is None:
        if len(_FRAGMENTS) >= _FRAGMENTS_MAX:
            _FRAGMENTS.clear()
        text = _FRAGMENTS[memo] = _KEY_ENCODER.encode(value)
    return text


def _mapping(data: Any, what: str) -> Mapping[str, Any]:
    """*data* itself if it is a mapping, else ``ValueError``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"bad {what} payload: expected a mapping, got "
                         f"{type(data).__name__}")
    return data


def _dataclass_from_dict(cls: type, data: Any, what: str):
    try:
        return cls(**_mapping(data, what))
    except TypeError as exc:
        raise ValueError(f"bad {what} payload: {exc}") from None


def core_from_dict(data: Mapping[str, Any]) -> CoreParams:
    """Rebuild :class:`CoreParams` (including nested memory params)."""
    payload = dict(_mapping(data, "core config"))
    mem_data = payload.pop("mem", None)
    mem = (_dataclass_from_dict(MemParams, mem_data, "memory config")
           if mem_data is not None else MemParams())
    payload["mem"] = mem
    return _dataclass_from_dict(CoreParams, payload, "core config")


def ltp_from_dict(data: Mapping[str, Any]) -> LTPConfig:
    """Rebuild :class:`LTPConfig` from its ``asdict`` payload."""
    return _dataclass_from_dict(LTPConfig, data, "LTP config")


@dataclass
class SimConfig:
    """Everything one simulation run depends on."""

    workload: str
    core: CoreParams = field(default_factory=CoreParams)
    ltp: LTPConfig = field(default_factory=LTPConfig)
    warmup: int = DEFAULT_WARMUP
    measure: int = DEFAULT_MEASURE
    #: allocation policy name (:mod:`repro.policies`); the default
    #: ("ltp", the paper's mechanism) is omitted from payloads, so
    #: pre-policy configs keep their cache keys
    policy: str = DEFAULT_POLICY
    #: frozen model artifact payload for learned policies
    #: (:mod:`repro.policies.learned`); ``None`` — the default, omitted
    #: from payloads so model-free configs keep their cache keys —
    #: means a learned policy falls back to the committed example
    #: artifact.  The payload's content hash makes different weights
    #: key differently.
    model: Optional[Dict[str, Any]] = None
    #: simulation engine ("object" or "kernel"); ``None`` — the
    #: default, omitted from payloads so pre-engine configs keep their
    #: cache keys — runs :data:`DEFAULT_ENGINE`.  Both engines produce
    #: identical statistics, but a named engine keys separately from
    #: the default and from the other engine (a cheap safety net: an
    #: engine divergence surfaces as a cache mismatch rather than
    #: silently reusing results)
    engine: Optional[str] = None

    def validate(self) -> "SimConfig":
        self.core.validate()
        self.ltp.validate()
        check_policy_name(self.policy)
        if self.model is not None:
            # deferred import: the learned package registers policies,
            # which pulls in this module
            from repro.policies.learned.artifact import \
                validate_model_payload
            validate_model_payload(self.model)
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: expected one of "
                f"{', '.join(ENGINES)}")
        if self.warmup < 0 or self.measure <= 0:
            raise ValueError("warmup must be >= 0, measure > 0")
        return self

    def _payload(self) -> Dict[str, Any]:
        """The payload shape, holding the live ``core``/``ltp``/``model``."""
        payload = {
            "workload": self.workload,
            "core": self.core,
            "ltp": self.ltp,
            "warmup": self.warmup,
            "measure": self.measure,
            "schema": CONFIG_SCHEMA,
        }
        if self.policy != DEFAULT_POLICY:
            # key stability: default-policy payloads are byte-identical
            # to pre-policy ones, so stored results keep resolving
            payload["policy"] = self.policy
        if self.model is not None:
            payload["model"] = self.model
        if self.engine is not None:
            payload["engine"] = self.engine
        return payload

    def to_dict(self) -> Dict[str, Any]:
        """Declarative payload in fresh plain containers (mutating it
        never reaches the config); :meth:`key` hashes the same shape."""
        return {name: asdict(value) if is_dataclass(value)
                else deepcopy(value)
                for name, value in self._payload().items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        """Inverse of :meth:`to_dict`; preserves :meth:`key` exactly.

        Tolerates payloads that omit ``core``/``ltp``/budgets/``engine``
        (defaults apply; no engine is ``engine=None``); rejects unknown
        fields inside them, non-string ``workload``/``policy``/``engine``,
        budgets that are not plain integers and ``core``/``ltp``
        sections that are not mappings, all with ``ValueError``.
        """
        payload = dict(_mapping(data, "config"))
        payload.pop("schema", None)
        try:
            workload = payload.pop("workload")
        except KeyError:
            raise ValueError("config payload is missing 'workload'") \
                from None
        core_data = payload.pop("core", None)
        ltp_data = payload.pop("ltp", None)
        warmup = payload.pop("warmup", DEFAULT_WARMUP)
        measure = payload.pop("measure", DEFAULT_MEASURE)
        policy = payload.pop("policy", DEFAULT_POLICY)
        model = payload.pop("model", None)
        engine = payload.pop("engine", None)
        if payload:
            raise ValueError(
                f"unknown config fields: {sorted(payload)}")
        strings = [("workload", workload), ("policy", policy)]
        if engine is not None:  # absent: the default engine
            strings.append(("engine", engine))
        for name, value in strings:
            if not isinstance(value, str):
                raise ValueError(f"config {name!r} must be a string, got "
                                 f"{type(value).__name__}")
        for name, value in (("warmup", warmup), ("measure", measure)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config {name!r} must be an integer, "
                                 f"got {value!r}")
        config = cls(
            workload=workload,
            core=(core_from_dict(core_data) if core_data is not None
                  else CoreParams()),
            ltp=(ltp_from_dict(ltp_data) if ltp_data is not None
                 else LTPConfig()),
            warmup=warmup, measure=measure,
            policy=policy, model=model, engine=engine)
        return config.validate()

    def key(self) -> str:
        """Stable content hash identifying this configuration: that of
        ``json.dumps(self.to_dict(), sort_keys=True, default=str)``,
        serialised from the live fields without ``asdict`` copies;
        ``core``, ``engine`` and ``ltp`` are :func:`_fragment` texts (a
        field whose ``str()`` changes while its ``repr()`` does not
        keeps its old text)."""
        payload = self._payload()
        # sorted, the payload opens "core", ["engine",] "ltp"; every
        # other key sorts after "ltp"
        parts = ['{"core": ', _fragment(payload.pop("core"))]
        if "engine" in payload:
            parts += ', "engine": ', _fragment(payload.pop("engine"))
        parts += (', "ltp": ', _fragment(payload.pop("ltp")), ", ",
                  _KEY_ENCODER.encode(payload)[1:])
        text = "".join(parts)
        return hashlib.sha256(text.encode()).hexdigest()[:24]
