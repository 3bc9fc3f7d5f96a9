"""Tests for the repro.api session layer: cache ownership, provenance,
lifetime control, and the process-global default session."""

from repro.api import Session, SimResult
from repro.api import session as session_mod
from repro.core.params import baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp


def quick_config(workload="compute_int", warmup=200, measure=150):
    return SimConfig(workload=workload, core=baseline_params(),
                     ltp=no_ltp(), warmup=warmup, measure=measure)


# ------------------------------------------------------------- basics
def test_every_public_export_resolves():
    import repro.api
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, (
            f"repro.api.__all__ names missing {name!r}")


def test_run_returns_typed_result(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    result = session.run(quick_config(), use_cache=False)
    assert isinstance(result, SimResult)
    assert result.source == "simulated"
    assert not result.cached
    assert result.wall_time_s > 0
    assert result["committed"] == 150
    assert result.cpi == result.stats["cpi"]
    assert result.key == quick_config().key()


def test_cache_provenance_memory_then_disk(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    first = session.run(quick_config())
    assert first.source == "simulated"
    second = session.run(quick_config())
    assert second.source == "memory" and second.cached
    assert second.wall_time_s == 0.0
    # a fresh session over the same directory serves from disk
    other = Session(cache_dir=str(tmp_path))
    third = other.run(quick_config())
    assert third.source == "disk"
    assert third.stats == first.stats


def test_no_cache_writes_nothing(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.run(quick_config(), use_cache=False)
    assert not list(tmp_path.glob("*.json"))


def test_cache_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    session = Session()
    assert session.cache_dir == tmp_path / "envcache"
    session.run(quick_config())
    assert list((tmp_path / "envcache").glob("*.json"))


def test_sessions_are_isolated(tmp_path):
    a = Session(cache_dir=str(tmp_path / "a"))
    b = Session(cache_dir=str(tmp_path / "b"))
    a.run(quick_config())
    assert a._trace_cache and not b._trace_cache
    assert b.results.lookup(quick_config().key()) is None


def test_context_manager_drops_memory_state(tmp_path):
    config = quick_config()
    with Session(cache_dir=str(tmp_path)) as session:
        session.run(config)
        assert session._trace_cache
    assert not session._trace_cache
    assert not session.results._memory
    # the disk cache persists across the session lifetime
    assert Session(cache_dir=str(tmp_path)).run(config).source == "disk"


def test_clear_memory_caches_drops_traces_and_results(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.run(quick_config())
    session.clear_memory_caches()
    assert not session._trace_cache
    assert not session.results._memory
    assert session.run(quick_config()).source == "disk"


def test_trace_cache_cap_bounds_workloads(tmp_path, monkeypatch):
    monkeypatch.setattr(session_mod, "TRACE_CACHE_MAX", 2)
    session = Session(cache_dir=str(tmp_path))
    for name in ("compute_int", "stream_triad", "lattice_milc"):
        session.get_trace(name, 64)
    assert len(session._trace_cache) == 2


# ---------------------------------------------------------- run_many
def test_run_many_orders_and_dedups(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    configs = [quick_config("compute_int"), quick_config("stream_triad"),
               quick_config("compute_int")]
    results = session.run_many(configs, use_cache=False)
    assert [r.config.workload for r in results] == \
        ["compute_int", "stream_triad", "compute_int"]
    # the duplicate IS the primary's outcome (one simulation ran)
    assert results[2] is results[0]
    assert results[2].stats is results[0].stats


def test_run_many_resolves_cached_in_process(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    config = quick_config()
    session.run(config)
    results = session.run_many([config])
    assert results[0].source == "memory"
    assert results[0].backend == "cache"  # no backend executed it


# ---------------------------------------------------- default session
def test_session_honours_monkeypatched_get_workload(fresh_session,
                                                    monkeypatch):
    """Sessions resolve workloads through ``repro.api.session``'s
    ``get_workload`` at call time, so stubbed workloads reach the whole
    execution path."""

    class StubWorkload:
        name = "stub"
        category = "mlp_insensitive"
        warm_regions = ()
        program = []

        def trace(self, length):
            from repro.workloads import get_workload
            return get_workload("compute_int").trace(length)

    calls = []

    def stub_factory(name):
        calls.append(name)
        return StubWorkload()

    monkeypatch.setattr(session_mod, "get_workload", stub_factory)
    result = fresh_session.run(quick_config("not_a_real_workload"),
                               use_cache=False)
    assert calls and calls[0] == "not_a_real_workload"
    assert result["committed"] == 150


def test_experiments_follow_set_default_session(fresh_session):
    """The experiment harness runs on whichever session is the default
    when a point runs (``fresh_session`` installs one)."""
    from repro.harness.experiments import _run

    config = quick_config()
    stats = _run(config.workload, config.core, config.ltp,
                 config.warmup, config.measure)
    assert fresh_session.results.lookup(config.key())[0] == stats
    assert (fresh_session.cache_dir / f"{config.key()}.json").is_file()
