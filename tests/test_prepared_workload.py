"""The session's trace-cache entry: one preparation per trace, shared by
every point that runs against it, on either engine."""

from repro.api import Session
from repro.core.params import CoreParams, baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp, proposed_ltp


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_points_of_one_trace_prepare_once(tmp_path, monkeypatch):
    """One workload build, one trace, one predecode and one oracle
    annotation, however many points run and on whichever engine."""
    import repro.api.session as session_mod
    import repro.core.kernel as kernel_mod
    from repro.workloads.base import Workload
    calls = []
    _count_calls(monkeypatch, session_mod, "get_workload", calls)
    _count_calls(monkeypatch, Workload, "trace", calls)
    _count_calls(monkeypatch, session_mod, "annotate_trace", calls)
    _count_calls(monkeypatch, kernel_mod, "predecode", calls)
    session = Session(cache_dir=str(tmp_path))
    for engine in ("object", "kernel"):
        for iq in (16, 32, 64):
            config = SimConfig(workload="compute_int",
                               core=CoreParams(iq_size=iq).validate(),
                               ltp=proposed_ltp(), warmup=200, measure=150,
                               engine=engine)
            session.run(config, use_cache=False)
    assert sorted(calls) == ["annotate_trace", "get_workload", "predecode",
                             "trace"]


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


def test_oracle_annotations_per_trace_are_bounded(tmp_path):
    with Session(cache_dir=str(tmp_path), oracle_cache_size=2) as session:
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
