"""``SimConfig.key()`` is a frozen interface.

Keys address the tracked ``.simcache`` fixtures and
``perfbench/reference.json``, so the key text must stay byte-identical
whatever the implementation does.  Every test here checks ``key()``
against the formula the key was first defined by, written out below:
the SHA-256 of ``json.dumps(<asdict payload>, sort_keys=True,
default=str)``, cut to 24 hex digits.  They cover a grid of every
registered policy, every LTP preset, every engine setting and both
model settings, plus randomized ``CoreParams``/``MemParams``/
``LTPConfig`` values, and check that ``to_dict()`` hands out fresh
containers.  ``key()`` reuses the text of ``core`` and ``ltp`` by
their ``repr``, so the last section checks that an in-place mutation
after a config was keyed is never served the old text, that every
field shows in the ``repr`` the reuse reads, that configs sharing a
core encode it once, and that the reused texts stay within their
bound.
"""

import copy
import hashlib
import json
from dataclasses import asdict, fields, is_dataclass, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.harness.config as config_mod
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import (CLASSIFIERS, GRANULARITIES, LL_PREDICTORS,
                              LTP_PRESETS, MODES, MONITORS, LTPConfig,
                              ltp_preset, proposed_ltp)
from repro.memory.hierarchy import MemParams
from repro.policies import policy_names
from repro.policies.learned.artifact import load_default_payload


def asdict_payload(config):
    """The config payload as ``asdict`` spells it (schema 3)."""
    payload = {
        "workload": config.workload,
        "core": asdict(config.core),
        "ltp": asdict(config.ltp),
        "warmup": config.warmup,
        "measure": config.measure,
        "schema": 3,
    }
    if config.policy != "ltp":
        payload["policy"] = config.policy
    if config.model is not None:
        payload["model"] = config.model
    if config.engine is not None:
        payload["engine"] = config.engine
    return payload


def reference_key(config):
    text = json.dumps(asdict_payload(config), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def assert_key_frozen(config):
    assert config.key() == reference_key(config)
    assert config.to_dict() == asdict_payload(config)


# ================================================================
# the grid: policy x LTP preset x engine x model
# ================================================================
ENGINES = (None, "object", "kernel")


@pytest.mark.parametrize("policy", policy_names())
def test_key_matches_the_asdict_formula_on_the_grid(policy):
    artifact = load_default_payload()
    keys = set()
    for preset in sorted(LTP_PRESETS):
        for engine in ENGINES:
            for model in (None, artifact):
                config = SimConfig(workload="compute_int",
                                   ltp=ltp_preset(preset), policy=policy,
                                   model=model, engine=engine)
                assert_key_frozen(config)
                keys.add(config.key())
    # every point of the grid keys differently
    assert len(keys) == len(LTP_PRESETS) * len(ENGINES) * 2


# ================================================================
# randomized parameter values
# ================================================================
SIZES = st.one_of(st.none(), st.integers(min_value=-2, max_value=1 << 40))
NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(max_size=8)


def mutated_table(default):
    """*default* with entries dropped, changed and added."""
    kept = st.fixed_dictionaries(
        {}, optional={name: st.integers(-1, 1000) for name in default})
    extra = st.dictionaries(NAMES, st.integers(-1, 1000), max_size=3)
    return st.builds(lambda a, b: {**a, **b}, kept, extra)


def scalar(default, choices=()):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, float):
        return NUMBERS
    if isinstance(default, str):
        return st.one_of(st.sampled_from(choices or (default,)), NAMES)
    return SIZES  # every integer field, None ("unlimited") included


def params(cls, **special):
    """A strategy over *cls* drawing every field, *special* overriding
    the per-type default strategy."""
    default = cls()
    return st.builds(cls, **{
        f.name: special.get(f.name, scalar(getattr(default, f.name)))
        for f in fields(cls)})


MEM = params(MemParams)
CORE = params(CoreParams, mem=MEM,
              latencies=mutated_table(CoreParams().latencies),
              fu_counts=mutated_table(CoreParams().fu_counts))
LTP = params(LTPConfig, mode=scalar("", MODES),
             classifier=scalar("", CLASSIFIERS),
             oracle_granularity=scalar("", GRANULARITIES),
             ll_predictor=scalar("", LL_PREDICTORS),
             monitor=scalar("", MONITORS),
             wakeup_policy=scalar("", ("rob-position", "eager")))
CONFIGS = st.builds(
    SimConfig, workload=NAMES, core=CORE, ltp=LTP,
    warmup=st.integers(0, 1 << 20), measure=st.integers(1, 1 << 20),
    policy=st.one_of(st.sampled_from(policy_names()), NAMES),
    model=st.one_of(st.none(),
                    st.dictionaries(NAMES, st.one_of(NUMBERS, NAMES),
                                    max_size=3)),
    engine=st.sampled_from(ENGINES))


@given(CONFIGS)
@settings(max_examples=200, deadline=None)
def test_key_matches_the_asdict_formula_on_random_params(config):
    assert_key_frozen(config)


# ================================================================
# to_dict() hands out fresh containers
# ================================================================
def test_mutating_a_payload_leaves_the_config_and_key():
    config = SimConfig(workload="compute_int", ltp=proposed_ltp(),
                       policy="model-park", model=load_default_payload())
    before = copy.deepcopy(config)
    key = config.key()
    payload = config.to_dict()
    payload["core"]["latencies"]["int_alu"] = -7
    payload["core"]["fu_counts"].clear()
    payload["core"]["mem"]["l1_latency"] = -7
    payload["core"]["rob_size"] = None
    payload["ltp"]["entries"] = -7
    payload["model"]["weights"].append(1)
    payload["model"]["planted"] = True
    assert config == before
    assert config.key() == key == reference_key(config)


@given(CONFIGS)
@settings(max_examples=50, deadline=None)
def test_mutating_a_random_payload_leaves_the_config_and_key(config):
    before = copy.deepcopy(config)
    key = config.key()
    payload = config.to_dict()
    payload["core"]["latencies"]["planted"] = 1
    payload["core"]["mem"]["mshrs"] = "planted"
    payload["ltp"]["mode"] = "planted"
    if "model" in payload:
        payload["model"]["planted"] = 1
    assert config == before
    assert config.key() == key


# ================================================================
# the reused core/ltp texts: mutations, repr coverage, the bound
# ================================================================
def _set(path, value):
    """A mutation setting the attribute at dotted *path* to *value*."""
    *owners, name = path.split(".")

    def mutate(config):
        target = config
        for owner in owners:
            target = getattr(target, owner)
        setattr(target, name, value)
    return mutate


def _set_latency(name, value):
    def mutate(config):
        config.core.latencies[name] = value
    return mutate


#: (mutation applied before the first key, mutation after it)
MUTATIONS = {
    "int->float": (None, _set("core.rob_size", 256.0)),
    "int->bool": (_set("core.fetch_width", 1), _set("core.fetch_width",
                                                    True)),
    "bool->int": (_set("ltp.enabled", True), _set("ltp.enabled", 1)),
    "0.0->-0.0": (_set("core.frequency_ghz", 0.0),
                  _set("core.frequency_ghz", -0.0)),
    "latency-changed": (None, _set_latency("int_alu", 2)),
    "latency-added": (None, _set_latency("planted", 1)),
    "mem-replaced": (None, lambda c: setattr(
        c.core, "mem", replace(c.core.mem, mshrs=2))),
    "mem-field": (None, _set("core.mem.l1_latency", 5)),
    "model-0.0->-0.0": (_set("model", {"w": 0.0}),
                        _set("model", {"w": -0.0})),
    "model-str-int": (_set("model", {"w": 1}), _set("model", {"w": "1"})),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_config_mutated_after_its_key_keys_afresh(name):
    before, after = MUTATIONS[name]
    config = SimConfig(workload="compute_int", ltp=proposed_ltp())
    if before is not None:
        before(config)
    old = config.key()
    assert old == reference_key(config)
    after(config)
    assert config.key() == reference_key(config) != old
    # a fresh config equal to the mutated one gets the same key
    assert copy.deepcopy(config).key() == config.key()


@pytest.mark.parametrize("cls", [CoreParams, MemParams, LTPConfig,
                                 SimConfig])
def test_every_field_shows_in_the_repr_the_memo_reads(cls):
    value = cls("compute_int") if cls is SimConfig else cls()
    text = repr(value)
    for f in fields(cls):
        assert f.repr, f.name
        assert f"{f.name}={getattr(value, f.name)!r}" in text, f.name


class _CountingEncoder:
    """``_KEY_ENCODER`` that records every value it encodes."""

    def __init__(self):
        self.encoded = []

    def encode(self, value):
        self.encoded.append(value)
        return json.JSONEncoder(sort_keys=True,
                                default=config_mod._expand).encode(value)


def test_configs_sharing_a_core_encode_it_once(monkeypatch):
    encoder = _CountingEncoder()
    monkeypatch.setattr(config_mod, "_KEY_ENCODER", encoder)
    monkeypatch.setattr(config_mod, "_FRAGMENTS", {})
    core, ltp = CoreParams(iq_size=32), proposed_ltp()
    configs = [SimConfig(workload=name, core=core, ltp=ltp)
               for name in ("compute_int", "lattice_milc", "stream")]
    configs.append(SimConfig(workload="stream", core=copy.deepcopy(core),
                             ltp=proposed_ltp(), engine="object"))
    for config in configs:
        assert config.key() == reference_key(config)
    assert [type(value) for value in encoder.encoded
            if is_dataclass(value)] == [CoreParams, LTPConfig]


def test_the_reused_texts_stay_within_their_bound(monkeypatch):
    fragments = {}
    monkeypatch.setattr(config_mod, "_FRAGMENTS", fragments)
    monkeypatch.setattr(config_mod, "_FRAGMENTS_MAX", 8)
    configs = [SimConfig(workload="compute_int",
                         core=CoreParams(rob_size=64 + size))
               for size in range(20)]
    for config in configs:
        assert config.key() == reference_key(config)
        assert len(fragments) <= 8
    assert config.key() == reference_key(config)
