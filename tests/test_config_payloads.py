"""Config payload readers accept a payload or raise ``ValueError``.

``SimConfig.from_dict`` and ``SweepSpec.from_dict(...).expand()`` read
outside input (spec files, stores, wire frames).  Whatever JSON value
lands in a ``core``/``core.mem``/``ltp`` field, a budget or a sweep
axis, the reader either yields configs that pass ``validate()`` and
whose ``key()`` survives a ``to_dict`` round trip, or raises
``ValueError`` naming the field: never another exception.
"""

import json
from dataclasses import fields

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import SweepSpec
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import (CLASSIFIERS, GRANULARITIES, LL_PREDICTORS,
                              MODES, MONITORS, WAKEUP_POLICIES, LTPConfig)
from repro.memory.hierarchy import MemParams

#: any JSON value: int, float, bool, str, null, list, object
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6)

#: values a field is likely to accept, so valid payloads are common
PLAUSIBLE = st.sampled_from(
    [None, True, False, 0, 1, 2, 4, 8, 16, 64, 190, 256, 512, 4096,
     32 * 1024, 3.4, *MODES, *CLASSIFIERS, *GRANULARITIES, *LL_PREDICTORS,
     *MONITORS, *WAKEUP_POLICIES, {"alu": 2}])

VALUES = PLAUSIBLE | JSON


def section(cls, exclude=()):
    names = [f.name for f in fields(cls) if f.name not in exclude]
    return st.dictionaries(st.sampled_from(names), VALUES, max_size=4)


CORE = st.builds(lambda core, mem: dict(core, mem=mem) if mem else core,
                 section(CoreParams, exclude=("mem",)),
                 st.none() | section(MemParams))
LTP = section(LTPConfig)
BUDGETS = st.dictionaries(st.sampled_from(["warmup", "measure"]), VALUES,
                          max_size=2)

AXIS_PATHS = (["warmup", "measure", "policy", "engine", "core.mem"]
              + [f"core.{f.name}" for f in fields(CoreParams)]
              + [f"ltp.{f.name}" for f in fields(LTPConfig)])
AXES = st.dictionaries(st.sampled_from(AXIS_PATHS),
                       st.lists(VALUES, min_size=1, max_size=3), max_size=2)


def assert_sound(config):
    config.validate()
    payload = json.loads(json.dumps(config.to_dict()))
    assert SimConfig.from_dict(payload).key() == config.key()


@given(CORE, LTP, BUDGETS)
@settings(max_examples=300, deadline=None)
def test_config_payload_is_read_or_rejected(core, ltp, budgets):
    payload = dict(budgets, workload="compute_int", core=core, ltp=ltp)
    try:
        config = SimConfig.from_dict(payload)
    except ValueError:
        return
    assert_sound(config)


@given(CORE, LTP, BUDGETS, AXES)
@settings(max_examples=200, deadline=None)
def test_sweep_payload_is_read_or_rejected(core, ltp, budgets, axes):
    payload = dict(budgets, workloads=["compute_int"], core=core, ltp=ltp,
                   axes=axes)
    try:
        configs = SweepSpec.from_dict(payload).expand()
    except ValueError:
        return
    for config in configs:
        assert_sound(config)
