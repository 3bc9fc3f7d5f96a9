"""Tests for the repro.api session layer: cache ownership, provenance,
lifetime control, and the default-session shims."""

import pytest

from repro.api import Session, SimResult, default_session
from repro.core.params import baseline_params
from repro.harness import runner as runner_mod
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp


def quick_config(workload="compute_int", warmup=200, measure=150):
    return SimConfig(workload=workload, core=baseline_params(),
                     ltp=no_ltp(), warmup=warmup, measure=measure)


# ------------------------------------------------------------- basics
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


def test_clear_memory_caches_keeps_results_when_asked(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.run(quick_config())
    session.clear_memory_caches(results=False)
    assert not session._trace_cache
    assert session.results._memory  # legacy runner semantics


def test_cache_size_caps_validated():
    with pytest.raises(ValueError):
        Session(trace_cache_size=0)


def test_trace_cache_cap_is_per_session(tmp_path):
    session = Session(cache_dir=str(tmp_path), trace_cache_size=2)
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


# ------------------------------------------------- default-session shims
def test_run_sim_shim_matches_session_run():
    config = quick_config()
    shim = runner_mod.run_sim(config, use_cache=False)
    direct = default_session().run(config, use_cache=False)
    assert shim == direct.stats


def test_runner_module_attributes_are_session_state():
    session = default_session()
    # the legacy attributes still resolve, but deprecated: each read
    # must say so (the suite-wide filter turns unguarded ones into
    # errors)
    with pytest.warns(DeprecationWarning, match="runner._trace_cache"):
        assert runner_mod._trace_cache is session._trace_cache
    with pytest.warns(DeprecationWarning, match="repro.api"):
        assert runner_mod._result_cache is session.results


def test_run_sim_shim_honours_monkeypatched_get_workload(monkeypatch):
    """The shims resolve workloads through runner.get_workload at call
    time, so stubbed workloads reach the whole execution path."""

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

    monkeypatch.setattr(runner_mod, "get_workload", stub_factory)
    result = runner_mod.run_sim(quick_config("not_a_real_workload"),
                                use_cache=False)
    assert calls and calls[0] == "not_a_real_workload"
    assert result["committed"] == 150
    runner_mod.clear_memory_caches()


def test_runner_shim_honours_result_cache_override(tmp_path, monkeypatch):
    from conftest import override_legacy_result_cache
    from repro.harness.cachefile import ResultCache
    override = ResultCache(str(tmp_path / "override"))
    override_legacy_result_cache(monkeypatch, override)
    config = quick_config()
    runner_mod.run_sim(config)
    assert override.lookup(config.key()) is not None
    assert (tmp_path / "override" / f"{config.key()}.json").is_file()


def test_shims_track_default_session_after_override_cycle(tmp_path):
    """A monkeypatch teardown writes the read-back default cache into
    the module globals; that must not pin the shims to it — a later
    set_default_session still redirects run_sim."""
    import pytest
    from conftest import override_legacy_result_cache
    from repro.api import set_default_session
    from repro.harness.cachefile import ResultCache

    monkeypatch = pytest.MonkeyPatch()
    override = ResultCache(str(tmp_path / "override"))
    override_legacy_result_cache(monkeypatch, override)
    monkeypatch.undo()  # leaves the old default cache as a real global

    replacement = Session(cache_dir=str(tmp_path / "fresh"))
    previous = set_default_session(replacement)
    try:
        config = quick_config()
        runner_mod.run_sim(config)
        assert replacement.results.lookup(config.key()) is not None
        assert (tmp_path / "fresh" / f"{config.key()}.json").is_file()
    finally:
        set_default_session(previous)
