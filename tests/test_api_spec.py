"""Config serialization round-trips and declarative sweep expansion."""

import json

import pytest

from repro.api import SweepSpec
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.harness.config import SimConfig, core_from_dict, ltp_from_dict
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp, wib_ltp
from repro.memory.hierarchy import MemParams


def sample_configs():
    unlimited = CoreParams(iq_size=None, int_regs=None, fp_regs=None,
                           lq_size=None, sq_size=None)
    unlimited.mem.mshrs = None
    custom_mem = CoreParams(mem=MemParams(l2_size=512 * 1024,
                                          prefetch_degree=2))
    return [
        SimConfig(workload="compute_int", core=baseline_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
        SimConfig(workload="lattice_milc", core=ltp_params(),
                  ltp=proposed_ltp()),
        SimConfig(workload="sparse_gather", core=unlimited,
                  ltp=limit_ltp("nr+nu"), warmup=0, measure=100),
        SimConfig(workload="stream_triad", core=custom_mem, ltp=wib_ltp()),
    ]


# ------------------------------------------------------ config roundtrip
@pytest.mark.parametrize("index", range(4))
def test_roundtrip_preserves_key(index):
    config = sample_configs()[index]
    restored = SimConfig.from_dict(config.to_dict())
    assert restored == config
    assert restored.to_dict() == config.to_dict()
    assert restored.key() == config.key()


@pytest.mark.parametrize("index", range(4))
def test_roundtrip_survives_json(index):
    """Payloads must stay key-stable through an actual JSON encode."""
    config = sample_configs()[index]
    payload = json.loads(json.dumps(config.to_dict()))
    assert SimConfig.from_dict(payload).key() == config.key()


def test_key_unchanged_by_serialization_refactor():
    """The content hash derives from the same payload as before the
    to_dict refactor — cached results keyed under schema 3 stay valid."""
    config = SimConfig(workload="compute_int", core=baseline_params(),
                       ltp=no_ltp(), warmup=300, measure=300)
    assert config.to_dict()["schema"] == 3


def test_from_dict_tolerates_missing_schema_and_sections():
    config = SimConfig.from_dict({"workload": "compute_int"})
    assert config.core == CoreParams()
    assert config.ltp == no_ltp().but()  # default-constructed LTPConfig
    # the key is regenerated under the current schema regardless
    assert config.key() == SimConfig(workload="compute_int").key()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        SimConfig.from_dict({"workload": "compute_int", "wat": 1})
    with pytest.raises(ValueError, match="core config"):
        SimConfig.from_dict({"workload": "compute_int",
                             "core": {"iq_sizes": 64}})
    with pytest.raises(ValueError, match="LTP config"):
        SimConfig.from_dict({"workload": "compute_int",
                             "ltp": {"modes": "nu"}})
    with pytest.raises(ValueError, match="missing 'workload'"):
        SimConfig.from_dict({})
    with pytest.raises(ValueError, match="bad config payload"):
        SimConfig.from_dict([("workload", "compute_int")])
    # wrong types at the parse boundary: ValueError, never a silent
    # coercion or a TypeError
    for field, value, match in (
            ("workload", 5, "'workload' must be a string"),
            ("policy", 7, "'policy' must be a string"),
            ("engine", ["kernel"], "'engine' must be a string"),
            ("warmup", 1.7, "'warmup' must be an integer"),
            ("warmup", True, "'warmup' must be an integer"),
            ("measure", "300", "'measure' must be an integer"),
            ("measure", None, "'measure' must be an integer"),
            ("core", [1, 2], "bad core config payload"),
            ("core", {"mem": [1]}, "bad memory config payload"),
            ("ltp", "nu", "bad LTP config payload")):
        with pytest.raises(ValueError, match=match):
            SimConfig.from_dict({"workload": "compute_int", field: value})


def test_nested_helpers_roundtrip():
    core = ltp_params()
    core.mem.l3_size = 2 * 1024 * 1024
    from dataclasses import asdict
    assert core_from_dict(asdict(core)) == core
    ltp = limit_ltp("nu")
    assert ltp_from_dict(asdict(ltp)) == ltp


# ------------------------------------------------------------ SweepSpec
def test_sweep_expansion_product_and_order():
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     axes={"core.iq_size": [16, 32],
                           "ltp.enabled": [False, True]},
                     warmup=200, measure=100)
    configs = spec.expand()
    assert len(configs) == len(spec) == 8
    assert [c.workload for c in configs[:4]] == ["compute_int"] * 4
    assert [(c.core.iq_size, c.ltp.enabled) for c in configs[:4]] == \
        [(16, False), (16, True), (32, False), (32, True)]
    assert all(c.warmup == 200 and c.measure == 100 for c in configs)
    assert len({c.key() for c in configs}) == 8


def test_sweep_budget_axes():
    spec = SweepSpec(workloads=["compute_int"],
                     axes={"measure": [100, 200]})
    configs = spec.expand()
    assert [c.measure for c in configs] == [100, 200]


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(workloads=["compute_int"],
                  axes={"core.iq": [1]}).expand()
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(workloads=["compute_int"],
                  axes={"workload": ["x"]}).expand()


def test_sweep_rejects_empty():
    with pytest.raises(ValueError, match="at least one workload"):
        SweepSpec(workloads=[]).expand()
    with pytest.raises(ValueError, match="non-empty list"):
        SweepSpec(workloads=["compute_int"],
                  axes={"core.iq_size": []}).expand()


def test_sweep_roundtrip_preserves_expansion():
    spec = SweepSpec(workloads=["lattice_milc"], core=ltp_params(),
                     ltp=proposed_ltp(), warmup=150, measure=100,
                     axes={"ltp.entries": [64, 128],
                           "core.iq_size": [16, 32]})
    payload = json.loads(json.dumps(spec.to_dict()))
    restored = SweepSpec.from_dict(payload)
    assert [c.key() for c in restored.expand()] == \
        [c.key() for c in spec.expand()]


def test_sweep_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown sweep fields"):
        SweepSpec.from_dict({"workloads": ["compute_int"], "axis": {}})
    with pytest.raises(ValueError, match="missing 'workloads'"):
        SweepSpec.from_dict({})
