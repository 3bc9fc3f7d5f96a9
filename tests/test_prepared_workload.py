"""The session's trace-cache entry: one preparation per trace, shared by
every point that runs against it, on either engine."""

from dataclasses import replace

import repro.api.session as session_mod
from repro.api import Session
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.harness.config import SimConfig
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_points_of_one_trace_prepare_once(tmp_path, monkeypatch):
    """One workload build, one trace, one predecode, one oracle
    annotation and one warm, however many points run and on whichever
    engine."""
    import repro.core.kernel as kernel_mod
    from repro.workloads.base import Workload
    calls = []
    _count_calls(monkeypatch, session_mod, "get_workload", calls)
    _count_calls(monkeypatch, Workload, "trace", calls)
    _count_calls(monkeypatch, session_mod, "annotate_trace", calls)
    _count_calls(monkeypatch, kernel_mod, "predecode", calls)
    _count_calls(monkeypatch, session_mod, "warm_hierarchy", calls)
    _count_calls(monkeypatch, session_mod, "warm_branch_predictor", calls)
    session = Session(cache_dir=str(tmp_path))
    for engine in ("object", "kernel"):
        for iq in (16, 32, 64):
            config = SimConfig(workload="compute_int",
                               core=CoreParams(iq_size=iq).validate(),
                               ltp=proposed_ltp(), warmup=200, measure=150,
                               engine=engine)
            session.run(config, use_cache=False)
    assert sorted(calls) == ["annotate_trace", "get_workload", "predecode",
                             "trace", "warm_branch_predictor",
                             "warm_hierarchy"]


def test_build_pipeline_is_the_run_recipe(tmp_path):
    config = SimConfig(workload="compute_int", core=baseline_params(),
                       ltp=no_ltp(), warmup=200, measure=150)
    with Session(cache_dir=str(tmp_path)) as session:
        stats = session.build_pipeline(config).run().as_dict()
        # a second build warms fresh mutable state over the same trace
        again = session.build_pipeline(config).run().as_dict()
        result = session.run(config, use_cache=False)
    assert stats == again
    assert {**stats, "workload": "compute_int",
            "category": result.stats["category"]} == result.stats


def test_trace_extension_keeps_annotations_and_repredecodes(tmp_path):
    core = baseline_params()
    with Session(cache_dir=str(tmp_path)) as session:
        short_oracle = session.get_oracle("compute_int", 200, core)
        short_arrays = session.get_trace_arrays("compute_int", 200)
        assert short_arrays.n == 200
        longer = session.get_trace_arrays("compute_int", 500)
        assert longer.n == 500 and longer is not short_arrays
        assert session.get_oracle("compute_int", 200, core) is short_oracle
        assert len(session.get_oracle("compute_int", 500, core)) == 500


def test_oracle_annotations_per_trace_are_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(session_mod, "ORACLE_CACHE_MAX", 2)
    with Session(cache_dir=str(tmp_path)) as session:
        cores = [CoreParams(rob_size=rob).validate()
                 for rob in (64, 128, 192)]
        first = session.get_oracle("compute_int", 300, cores[0])
        for core in cores[1:]:
            session.get_oracle("compute_int", 300, core)
        # the least recently used annotation was dropped and is rebuilt
        assert session.get_oracle("compute_int", 300, cores[0]) \
            is not first
        assert session.get_oracle("compute_int", 300, cores[2]) \
            is session.get_oracle("compute_int", 300, cores[2])


def _with_mem(core, **fields):
    return replace(core, mem=replace(core.mem, **fields)).validate()


def _fresh_stats(tmp_path, config):
    with Session(cache_dir=str(tmp_path / "fresh")) as session:
        return session.run(config, use_cache=False).stats


def test_a_run_never_writes_into_the_warm_snapshot(tmp_path, monkeypatch):
    """A, then B, then A again over one snapshot: both A runs equal a
    fresh session's, and so does B."""
    calls = []
    _count_calls(monkeypatch, session_mod, "warm_hierarchy", calls)
    a = SimConfig(workload="lattice_milc", core=ltp_params(),
                  ltp=proposed_ltp(), warmup=600, measure=400)
    b = SimConfig(workload="lattice_milc", core=baseline_params(),
                  ltp=no_ltp(), warmup=600, measure=400, engine="object")
    with Session(cache_dir=str(tmp_path / "shared")) as session:
        first = session.run(a, use_cache=False).stats
        other = session.run(b, use_cache=False).stats
        again = session.run(a, use_cache=False).stats
    assert calls == ["warm_hierarchy"]
    assert first == again == _fresh_stats(tmp_path, a)
    assert other == _fresh_stats(tmp_path, b)


def test_cores_differing_in_mshrs_or_latencies_share_one_warm(
        tmp_path, monkeypatch):
    calls = []
    _count_calls(monkeypatch, session_mod, "warm_hierarchy", calls)
    base = baseline_params()
    cores = [base, _with_mem(base, mshrs=2),
             _with_mem(base, l2_latency=20, l3_latency=60,
                       dram_latency=300)]
    configs = [SimConfig(workload="ptrchase_astar", core=core, ltp=no_ltp(),
                         warmup=600, measure=400) for core in cores]
    with Session(cache_dir=str(tmp_path / "shared")) as session:
        stats = [session.run(config, use_cache=False).stats
                 for config in configs]
    assert calls == ["warm_hierarchy"]
    # each copy runs under its own MSHRs and latencies
    assert stats[1]["cycles"] != stats[0]["cycles"] != stats[2]["cycles"]
    monkeypatch.undo()
    assert stats == [_fresh_stats(tmp_path, config) for config in configs]


def test_clearing_memory_caches_drops_warm_snapshots(tmp_path, monkeypatch):
    calls = []
    _count_calls(monkeypatch, session_mod, "warm_hierarchy", calls)
    config = SimConfig(workload="compute_int", core=baseline_params(),
                       ltp=no_ltp(), warmup=200, measure=150)
    with Session(cache_dir=str(tmp_path)) as session:
        session.run(config, use_cache=False)
        session.clear_memory_caches()
        session.run(config, use_cache=False)
    assert calls == ["warm_hierarchy"] * 2


def test_warm_snapshots_per_trace_are_bounded(tmp_path, monkeypatch):
    calls = []
    _count_calls(monkeypatch, session_mod, "warm_hierarchy", calls)
    configs = [SimConfig(workload="compute_int", core=baseline_params(),
                         ltp=no_ltp(), warmup=warmup, measure=300 - warmup)
               for warmup in (100, 200, 100)]
    monkeypatch.setattr(session_mod, "ORACLE_CACHE_MAX", 1)
    with Session(cache_dir=str(tmp_path)) as session:
        for config in configs:
            session.run(config, use_cache=False)
    assert calls == ["warm_hierarchy"] * 3


def test_annotations_are_keyed_by_the_whole_memory_geometry(tmp_path):
    """An annotation made under 16-way L2/L3 is not served to a 2-way
    point: a point's stats never depend on what its session ran
    before."""
    def config(ways):
        return SimConfig(workload="ptrchase_astar",
                         core=_with_mem(ltp_params(), l2_ways=ways,
                                        l3_ways=ways),
                         ltp=limit_ltp("nr+nu"), warmup=3000, measure=1500)
    with Session(cache_dir=str(tmp_path / "shared")) as session:
        session.run(config(16), use_cache=False)
        after = session.run(config(2), use_cache=False).stats
    assert after == _fresh_stats(tmp_path, config(2))
