"""Tests for the session's preparation: warming, oracle caching, slicing."""

import pytest

from repro.api import default_session
from repro.core.params import CoreParams, baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.ltp.controller import LTPController
from repro.workloads import get_workload


def stats_of(config):
    return default_session().run(config, use_cache=False).stats


def test_get_oracle_cached_and_consistent():
    session = default_session()
    session.clear_memory_caches()
    core = baseline_params()
    oracle_a = session.get_oracle("sparse_gather", 800, core)
    oracle_b = session.get_oracle("sparse_gather", 800, core)
    assert oracle_a is oracle_b
    assert len(oracle_a) == 800


def test_oracle_includes_warm_regions():
    """Index-array loads must not be labelled long-latency: a
    paper-scale warmup leaves them resident (warm_regions)."""
    default_session().clear_memory_caches()
    core = baseline_params()
    trace = default_session().get_trace("sparse_gather", 2000)
    oracle = default_session().get_oracle("sparse_gather", 2000, core)
    index_load_pcs = {d.pc for d in trace if d.inst.opcode == "ldx"}
    ll_index_loads = sum(
        1 for i, d in enumerate(trace[500:], start=500)
        if d.pc in index_load_pcs and oracle.long_latency[i])
    total_index_loads = sum(1 for d in trace[500:]
                            if d.pc in index_load_pcs)
    assert ll_index_loads / max(1, total_index_loads) < 0.2


def test_measured_slice_sequences_are_absolute():
    """Records in the measured slice keep their global seq numbers, so
    the oracle (indexed by seq over the full trace) lines up."""
    config = SimConfig(workload="compute_int", core=baseline_params(),
                       ltp=no_ltp(), warmup=500, measure=200)
    result = stats_of(config)
    assert result["committed"] == 200


def test_online_warmup_pretrains_uit():
    """After session-style warmup, the online classifier should already
    know the urgent PCs of a steady loop."""
    workload = get_workload("sparse_gather")
    trace = workload.trace(3000)
    core = baseline_params()
    oracle = default_session().get_oracle("sparse_gather", 3000, core)
    config = proposed_ltp()
    controller = LTPController(config, core.mem.dram_latency,
                               oracle=oracle)
    controller.warm_from_trace(trace[:2500], oracle.long_latency[:2500])
    gather_pc = next(d.pc for d in trace if d.inst.opcode == "fldx")
    assert controller.classifier.uit.contains(gather_pc)


def test_zero_warmup_allowed():
    config = SimConfig(workload="compute_int", core=baseline_params(),
                       ltp=no_ltp(), warmup=0, measure=150)
    result = stats_of(config)
    assert result["committed"] == 150


def test_ltp_run_with_unusual_ports():
    config = SimConfig(workload="lattice_milc",
                       core=CoreParams(iq_size=32, int_regs=96,
                                       fp_regs=96),
                       ltp=limit_ltp("nu").but(ports=3, entries=48,
                                               park_loads=False,
                                               park_stores=False),
                       warmup=800, measure=400)
    result = stats_of(config)
    assert result["committed"] == 400


def test_result_contains_level_fractions():
    config = SimConfig(workload="stream_triad", core=baseline_params(),
                       ltp=no_ltp(), warmup=600, measure=300)
    result = stats_of(config)
    total = sum(result[f"frac_{level}"]
                for level in ("l1", "l2", "l3", "dram"))
    assert total == pytest.approx(1.0, abs=1e-6)
