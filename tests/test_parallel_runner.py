"""Tests for the parallel sweep executor and the bounded runner caches."""

import json

import pytest

from conftest import override_legacy_result_cache

from repro.api import default_session
from repro.core.params import baseline_params, ltp_params
from repro.harness import runner as runner_mod
from repro.harness.cachefile import ResultCache
from repro.harness.config import SimConfig
from repro.harness.experiments import (fig5_lifetimes, plan_configs,
                                       run_parallel)
from repro.harness.runner import (TRACE_CACHE_MAX, clear_memory_caches,
                                  get_trace, run_sims)
from repro.ltp.config import limit_ltp, no_ltp


def _configs():
    return [
        SimConfig(workload="compute_int", core=baseline_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
        SimConfig(workload="stream_triad", core=baseline_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
        SimConfig(workload="lattice_milc", core=ltp_params(),
                  ltp=limit_ltp("nu"), warmup=300, measure=200),
        SimConfig(workload="compute_int", core=ltp_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
    ]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Point the runner at an empty disk cache for the test's duration."""
    cache = ResultCache(str(tmp_path / "simcache"))
    override_legacy_result_cache(monkeypatch, cache)
    return cache


def test_parallel_matches_serial(fresh_cache):
    configs = _configs()
    serial = run_sims(configs, jobs=1, use_cache=False)
    parallel = run_sims(configs, jobs=3, use_cache=False)
    assert serial == parallel


def test_parallel_ordering_deterministic(fresh_cache):
    configs = _configs()
    results = run_sims(configs, jobs=3)
    assert [r["workload"] for r in results] == \
        [c.workload for c in configs]
    # a second pass (fully cached) preserves the same rows in order
    again = run_sims(configs, jobs=3)
    assert again == results


def test_concurrent_writers_leave_cache_consistent(fresh_cache):
    """Many workers writing the same keys must not corrupt cache files."""
    configs = _configs() * 3  # duplicate keys -> concurrent same-key writes
    results = run_sims(configs, jobs=4)
    for index in range(len(_configs())):
        assert results[index] == results[index + 4] == results[index + 8]
    # every cache file on disk must be valid JSON matching the result
    files = list(fresh_cache.directory.glob("*.json"))
    assert files, "disk cache was not populated"
    for path in files:
        with open(path) as handle:
            payload = json.load(handle)
        assert "cycles" in payload
    # no temp files may linger
    assert not list(fresh_cache.directory.glob("*.tmp"))
    # and a fresh cache instance can serve every config from disk
    reread = ResultCache(str(fresh_cache.directory))
    for config in _configs():
        assert reread.get(config.key()) == \
            fresh_cache.get(config.key())


def test_run_parallel_equals_sequential_experiment(fresh_cache):
    sequential = fig5_lifetimes(warmup=300, measure=200)
    parallel = run_parallel(fig5_lifetimes, warmup=300, measure=200, jobs=2)
    assert sequential == parallel


def test_plan_configs_enumerates_without_simulating(fresh_cache):
    configs = plan_configs(fig5_lifetimes, warmup=300, measure=200)
    assert len(configs) == 2  # baseline + LTP point
    assert fresh_cache.hits == 0 and fresh_cache.misses == 0
    keys = [c.key() for c in configs]
    assert len(set(keys)) == len(keys)


def test_trace_cache_shares_prefixes_and_is_bounded():
    clear_memory_caches()
    trace_cache = default_session()._trace_cache
    long_trace = get_trace("compute_int", 600)
    short_trace = get_trace("compute_int", 200)
    # the shorter request is served from the longer trace...
    assert short_trace == long_trace[:200]
    # ...and does NOT retain an extra cached copy per distinct length
    assert list(trace_cache) == ["compute_int"]
    assert len(trace_cache["compute_int"].trace) == 600
    # an exact-length request returns the shared list itself (no copy)
    assert get_trace("compute_int", 600) is long_trace
    # LRU eviction caps the number of retained workloads
    names = ["compute_int", "stream_triad", "lattice_milc", "ptrchase_astar",
             "sparse_gather", "compute_fp", "indirect_fig2"]
    for name in names:
        get_trace(name, 64)
    assert len(trace_cache) <= TRACE_CACHE_MAX
    clear_memory_caches()


def test_trace_cache_does_not_regenerate_halting_workloads(monkeypatch):
    """A trace shorter than its requested length is complete; further
    (even longer) requests must reuse it rather than re-run the
    executor (the workload halts early)."""
    clear_memory_caches()
    calls = []

    class HaltingWorkload:
        category = "mlp_insensitive"
        program = []
        warm_regions = ()

        def trace(self, length):
            calls.append(length)
            return list(range(min(length, 150)))  # halts at 150 insts

    monkeypatch.setattr(runner_mod, "get_workload",
                        lambda name: HaltingWorkload())
    full = get_trace("halting", 400)
    assert len(full) == 150 and calls == [400]
    # complete trace satisfies repeated and even longer requests without
    # re-running the executor
    assert get_trace("halting", 400) is full
    assert get_trace("halting", 500) is full
    assert calls == [400]
    # shorter requests still slice the shared prefix
    assert get_trace("halting", 100) == full[:100]
    assert calls == [400]
    clear_memory_caches()
