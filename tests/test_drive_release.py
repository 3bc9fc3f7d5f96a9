"""A batched drive keeps a workload's trace-cache entry only while a
batch it has left uses that workload: inline it releases the entry
after the workload's last batch, and a pool worker drops the entries
of the workloads each chunk names as finished."""

import gc
import multiprocessing
import os
import time
import tracemalloc

import pytest

from repro.api import PoolExecutor, Session, SweepSpec
from repro.api import exec as exec_mod
from repro.api import session as session_mod
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def config_for(workload, iq=64, warmup=150, measure=120):
    return SimConfig(workload=workload,
                     core=CoreParams(iq_size=iq).validate(), ltp=no_ltp(),
                     warmup=warmup, measure=measure)


def counting_builds(monkeypatch):
    """Count workload builds per name through the session module."""
    builds = []
    real = session_mod.get_workload

    def counted(name):
        builds.append(name)
        return real(name)

    monkeypatch.setattr(session_mod, "get_workload", counted)
    return builds


def test_last_use_is_per_workload_name(tmp_path, monkeypatch):
    """One entry serves every trace length of a workload: it lives
    through another workload's batch until its own last batch, and is
    gone after it, at one build per workload."""
    builds = counting_builds(monkeypatch)
    configs = [config_for("compute_int", measure=130),
               config_for("compute_int", iq=32, measure=130),
               config_for("stream_triad"),
               config_for("compute_int")]  # a prefix: no rebuild
    held = []
    with Session(cache_dir=str(tmp_path)) as session:
        def progress(event):
            if event.kind == "finished":
                held.append(sorted(session._trace_cache))

        session.run_many(configs, use_cache=False, progress=progress)
        assert not session._trace_cache
    assert held == [["compute_int"], ["compute_int"],
                    ["compute_int", "stream_triad"], ["compute_int"]]
    assert sorted(builds) == ["compute_int", "stream_triad"]


def test_unbatched_drive_still_builds_each_workload_once(tmp_path,
                                                         monkeypatch):
    builds = counting_builds(monkeypatch)
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48]})
    with Session(cache_dir=str(tmp_path)) as session:
        session.sweep(spec, use_cache=False,
                      backend=PoolExecutor(jobs=1, batch_size=1))
        assert not session._trace_cache
    assert builds == ["compute_int", "stream_triad"]


def test_a_released_entry_is_really_freed(tmp_path):
    """Every prepared value was ``gc.freeze()``-d, so a reference cycle
    in the prepared graph would outlive its release: the traced size
    after a drive over three workloads must return near its start."""
    spec = SweepSpec(workloads=["compute_int", "stream_triad",
                                "lattice_milc"],
                     warmup=300, measure=200, engine="kernel",
                     axes={"policy": ["ltp", "oracle-park"]})
    with Session(cache_dir=str(tmp_path)) as session:
        # import and memoise everything a drive touches before tracing
        session.sweep(SweepSpec(workloads=["compute_int"], warmup=50,
                                measure=50, engine="kernel",
                                axes={"policy": ["ltp", "oracle-park"]}),
                      use_cache=False)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = session.sweep(spec, use_cache=False)
            assert len(results) == 6
            del results
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not session._trace_cache
    assert after - before < (peak - before) / 20


def test_chunk_worker_drops_its_entry_after_the_final_chunk(
        fresh_session):
    items = [(config, config.key())
             for config in (config_for("compute_int"),
                            config_for("compute_int", iq=32))]
    exec_mod._chunk_worker(items[:1], ())
    assert list(fresh_session._trace_cache) == ["compute_int"]
    outcomes = exec_mod._chunk_worker(items[1:], ["compute_int"])
    assert [error for error, _, _ in outcomes] == [None]
    assert not fresh_session._trace_cache


_REAL_CHUNK_WORKER = exec_mod._chunk_worker


def _recording_chunk_worker(items, finished=()):
    final = items[0][0].workload in finished
    with open(os.environ["REPRO_TEST_CHUNK_LOG"], "a") as log:
        log.write(f"{items[0][1]} {int(final)}\n")
    return _REAL_CHUNK_WORKER(items, finished)


def _holding_chunk_worker(items, finished=()):
    """Run the chunk, then log its first key and the workloads whose
    entries this worker still holds."""
    outcomes = _REAL_CHUNK_WORKER(items, finished)
    held = " ".join(sorted(session_mod.default_session()._trace_cache))
    with open(os.environ["REPRO_TEST_CHUNK_LOG"], "a") as log:
        log.write(f"{items[0][1]} {held}\n")
    time.sleep(0.05)  # let the other worker take the next chunk
    return outcomes


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_marks_only_each_workloads_last_chunk_final(tmp_path,
                                                         monkeypatch):
    chunk_log = tmp_path / "chunks.log"
    monkeypatch.setenv("REPRO_TEST_CHUNK_LOG", str(chunk_log))
    monkeypatch.setattr(exec_mod, "_chunk_worker", _recording_chunk_worker)
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48]})
    configs = spec.expand()
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        session.sweep(spec, use_cache=False,
                      backend=PoolExecutor(jobs=2, batch_size=1))
    final = dict(line.split() for line in chunk_log.read_text().splitlines())
    assert final == {config.key(): "1" if n in (2, 5) else "0"
                     for n, config in enumerate(configs)}


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_no_worker_keeps_a_workload_after_its_last_chunk_went_out(
        fresh_session, tmp_path, monkeypatch):
    """Chunks go out in batch order; after chunk *i*, a worker holds
    only workloads with a batch after *i*, whichever worker ran the
    earlier chunks of a workload.  (Workers fork the default session,
    which ``fresh_session`` empties.)"""
    chunk_log = tmp_path / "chunks.log"
    monkeypatch.setenv("REPRO_TEST_CHUNK_LOG", str(chunk_log))
    monkeypatch.setattr(exec_mod, "_chunk_worker", _holding_chunk_worker)
    spec = SweepSpec(workloads=["compute_int", "lattice_milc",
                                "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48, 64]})
    configs = spec.expand()
    chunk_of = {config.key(): n // 2 for n, config in enumerate(configs)}
    last_chunk = {config.workload: n // 2
                  for n, config in enumerate(configs)}
    fresh_session.sweep(spec, use_cache=False,
                        backend=PoolExecutor(jobs=2, batch_size=2))
    lines = [line.split() for line in chunk_log.read_text().splitlines()]
    assert sorted(chunk_of[key] for key, *_ in lines) == list(range(6))
    for key, *held in lines:
        assert [w for w in held if last_chunk[w] <= chunk_of[key]] == []


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_no_worker_keeps_a_workload_it_inherited_at_fork(
        fresh_session, tmp_path, monkeypatch):
    """A lone point leaves its workload in the default session's trace
    cache; the pool workers of a later drive over other workloads fork
    that session, and none of them holds the lone point's workload."""
    fresh_session.run(config_for("lattice_milc"), use_cache=False)
    assert list(fresh_session._trace_cache) == ["lattice_milc"]
    chunk_log = tmp_path / "chunks.log"
    monkeypatch.setenv("REPRO_TEST_CHUNK_LOG", str(chunk_log))
    monkeypatch.setattr(exec_mod, "_chunk_worker", _holding_chunk_worker)
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48, 64]})
    fresh_session.sweep(spec, use_cache=False,
                        backend=PoolExecutor(jobs=2, batch_size=2))
    lines = [line.split() for line in chunk_log.read_text().splitlines()]
    assert len(lines) == 4
    assert [held for _, *held in lines if "lattice_milc" in held] == []
