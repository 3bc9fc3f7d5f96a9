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
            ("ltp", "nu", "bad LTP config payload"),
            ("core", {"iq_size": "32"}, "'core.iq_size' must be an integer"),
            ("ltp", {"entries": "x"}, "'ltp.entries' must be an integer")):
        with pytest.raises(ValueError, match=match):
            SimConfig.from_dict({"workload": "compute_int", field: value})


def test_validate_checks_fields_set_after_construction():
    """Rules run in validate(), so a field mutated after construction
    (as the limit-study cores are) is checked too."""
    config = SimConfig(workload="compute_int")
    config.core.iq_size = "32"
    with pytest.raises(ValueError, match="'core.iq_size'"):
        config.validate()
    config.core.iq_size = None
    config.core.mem.l2_ways = 3
    with pytest.raises(ValueError, match="'core.mem.l2_size'"):
        config.validate()


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


@pytest.mark.parametrize("payload,field", [
    ({"workloads": "lattice_milc"}, "'workloads'"),
    ({"workloads": 5}, "'workloads'"),
    ({"workloads": ["lattice_milc", 3]}, "'workloads'"),
    ({"workloads": ["lattice_milc"], "axes": [1]}, "'axes'"),
    ({"workloads": ["lattice_milc"], "axes": {"core.iq_size": "ab"}},
     "'core.iq_size'"),
    (["lattice_milc"], "object"),
    ({"workloads": ["lattice_milc"], "measure": 100.9}, "'measure'"),
    ({"workloads": ["lattice_milc"], "measure": "300"}, "'measure'"),
    ({"workloads": ["lattice_milc"], "warmup": True}, "'warmup'"),
    ({"workloads": ["lattice_milc"], "axes": {"measure": [100, 100.9]}},
     "'measure'"),
    ({"workloads": ["lattice_milc"], "policy": "teleport"}, "'teleport'"),
    ({"workloads": ["lattice_milc"], "axes": {"policy": ["ltp", "teleport"]}},
     "'teleport'"),
    ({"workloads": ["lattice_milc"], "engine": "warp"}, "'warp'"),
    ({"workloads": ["lattice_milc"], "axes": {"engine": ["kernel", "warp"]}},
     "'warp'"),
    ({"workloads": ["lattice_milc"], "core": {"iq_size": "32"}},
     "'core.iq_size'"),
    ({"workloads": ["lattice_milc"], "ltp": {"entries": "x"}},
     "'ltp.entries'"),
    ({"workloads": ["lattice_milc"], "axes": {"core.iq_size": ["x"]}},
     "'core.iq_size'"),
    ({"workloads": ["lattice_milc"], "axes": {"core.mem": [{"mshrs": 0}]}},
     "'core.mem.mshrs'"),
    ({"workloads": ["lattice_milc"], "axes": {"core.iq_size": [-1]}},
     "'core.iq_size'"),
    ({"workloads": ["lattice_milc"], "warmup": -5}, "'warmup'"),
    ({"workloads": ["lattice_milc"], "core": {"mem": {"l1d_size": 1000}}},
     "'core.mem.l1d_size'"),
    ({"workloads": ["lattice_milc"], "axes": {"ltp.uit_ways": [0]}},
     "'ltp.uit_ways'"),
    ({"workloads": ["nope"]}, "'nope'"),
    ({"workloads": ["lattice_milc"], "core": {"iq_size": True}},
     "'core.iq_size'"),
    ({"workloads": ["lattice_milc"], "core": {"rob_size": 1.5}},
     "'core.rob_size'"),
    ({"workloads": ["lattice_milc"], "core": {"latencies": 5}},
     "'core.latencies'"),
    ({"workloads": ["lattice_milc"], "axes": {"ltp.enabled": ["yes"]}},
     "'ltp.enabled'"),
], ids=["workloads-string", "workloads-int", "workloads-mixed",
        "axes-list", "axis-string", "payload-list", "budget-float",
        "budget-string", "budget-bool", "budget-axis-float", "policy-unknown",
        "policy-axis-unknown", "engine-unknown", "engine-axis-unknown",
        "core-field-string", "ltp-field-string", "axis-value-string",
        "mem-axis-bad", "axis-value-negative", "budget-negative",
        "cache-geometry", "uit-ways-zero", "workload-unknown",
        "int-field-bool", "int-field-float", "latencies-int",
        "bool-axis-string"])
def test_sweep_from_dict_rejects_bad_types(payload, field):
    """A payload of the wrong shape is a ValueError naming the field,
    never a spec that silently expands to something else."""
    with pytest.raises(ValueError, match=field):
        SweepSpec.from_dict(payload)


def test_sweep_mem_axis_is_read_like_a_payload():
    """A ``core.mem`` axis value is a memory-config object, read like
    the same field of a config payload (unnamed fields default)."""
    spec = SweepSpec(workloads=["compute_int"], axes={
        "core.mem": [{"mshrs": 2}, {"l2_size": 512 * 1024}]})
    configs = spec.expand()
    assert [c.core.mem for c in configs] == \
        [MemParams(mshrs=2), MemParams(l2_size=512 * 1024)]


def test_sweep_workloads_are_checked_at_call_time(monkeypatch):
    """Workload names are checked against the registry as it stands
    when the spec is validated: aliases and late registrations pass."""
    from repro.workloads import mixes
    SweepSpec(workloads=["milc", "astar"]).validate()
    with pytest.raises(ValueError, match="'late_kernel'"):
        SweepSpec(workloads=["late_kernel"]).validate()
    monkeypatch.setitem(mixes._FACTORIES, "late_kernel",
                        mixes._FACTORIES["compute_int"])
    SweepSpec(workloads=["late_kernel"]).validate()
