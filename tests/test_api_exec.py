"""The execution layer: executors' ``run()`` generators, lifecycle
events, retries, interrupts and stateless executors."""

import multiprocessing
import os
import signal
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import (PoolExecutor, ResultStore, Session, SweepSpec,
                       WorkerFailure, as_executor)
from repro.api import exec as exec_mod
from repro.core.params import CoreParams, baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def make_configs(count=3):
    workloads = ["compute_int", "stream_triad", "lattice_milc",
                 "sparse_gather"]
    return [SimConfig(workload=workloads[i % len(workloads)],
                      core=baseline_params(), ltp=no_ltp(),
                      warmup=150, measure=100 + 10 * (i // len(workloads)))
            for i in range(count)]


def make_spec():
    return SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32]})


def items_of(configs):
    """``run()`` items, as ``Session._drive`` builds them."""
    return [(i, config, config.key()) for i, config in enumerate(configs)]


# ------------------------------------------------- lifecycle events
def test_progress_events_exactly_once_serial(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    configs = make_configs(3)
    session.run_many(configs, use_cache=False, progress=events.append)
    per_key = {}
    for event in events:
        per_key.setdefault(event.key, Counter())[event.kind] += 1
    assert len(per_key) == 3
    for config in configs:
        counts = per_key[config.key()]
        assert counts == Counter(submitted=1, started=1, finished=1)
    # serial ordering is deterministic: submissions first, then each
    # item starts and finishes before the next starts
    kinds = [e.kind for e in events]
    assert kinds == (["submitted"] * 3
                     + ["started", "finished"] * 3)
    finished = [e for e in events if e.kind == "finished"]
    assert all(e.source == "simulated" for e in finished)
    assert all(e.attempt == 1 for e in finished)


def test_progress_events_exactly_once_pool(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    configs = make_configs(4)
    backend = PoolExecutor(jobs=2, batch_size=1)
    session.run_many(configs, use_cache=False, backend=backend,
                     progress=events.append)
    per_key = {}
    for event in events:
        per_key.setdefault(event.key, Counter())[event.kind] += 1
    assert len(per_key) == 4
    for counts in per_key.values():
        assert counts == Counter(submitted=1, started=1, finished=1)


def test_event_payloads_are_json_ready(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    session.run_many(make_configs(1), use_cache=False,
                     progress=events.append)
    payload = events[-1].to_dict()
    assert payload["kind"] == "finished"
    assert payload["workload"] == "compute_int"
    assert "error" not in payload  # None fields are omitted
    assert payload["source"] == "simulated"


# ------------------------------------------------------------ retries
def test_serial_retry_recovers_from_transient_failure(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    # every inline point runs BatchRunner.run -> Session._run
    real_run = session._run
    crashes = {"left": 1}

    def flaky_run(config, key):
        if crashes["left"]:
            crashes["left"] -= 1
            raise RuntimeError("simulated worker crash")
        return real_run(config, key)

    session._run = flaky_run
    events = []
    results = session.run_many(make_configs(2), use_cache=False,
                               progress=events.append)
    assert len(results) == 2
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 1
    assert counts["finished"] == 2
    assert counts.get("failed", 0) == 0
    retried = next(e for e in events if e.kind == "retried")
    assert "simulated worker crash" in retried.error


def test_serial_retries_exhaust_and_surface_on_future(tmp_path):
    session = Session(cache_dir=str(tmp_path))

    def always_crash(config, key):
        raise RuntimeError("persistent crash")

    session._run = always_crash
    executor = PoolExecutor(jobs=1, max_retries=2)
    events = []
    configs = make_configs(1)
    [exc] = executor.run(session, items_of(configs), events.append)
    assert isinstance(exc, WorkerFailure)
    assert exc.attempts == 3  # 1 try + 2 retries
    assert "persistent crash" in str(exc)
    with pytest.raises(WorkerFailure):
        session.run_many(configs, use_cache=False, backend=executor)
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 2
    assert counts["failed"] == 1
    assert "finished" not in counts


#: the real chunk worker, for the crash-once stand-in to delegate to
_REAL_CHUNK_WORKER = exec_mod._chunk_worker


def _crashing_chunk_worker(items, finished=()):
    raise RuntimeError("worker process crashed")


def _crash_once_chunk_worker(items, finished=()):
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        raise RuntimeError("first-attempt crash")
    # the saved original: exec_mod._chunk_worker is monkeypatched to
    # *this* function
    return _REAL_CHUNK_WORKER(items, finished)


def test_chunk_worker_takes_keys_and_hashes_nothing(fresh_session,
                                                    monkeypatch):
    # the parent hashes each config once and ships its key along;
    # the worker must not hash it again
    configs = [SimConfig(workload="compute_int",
                         core=CoreParams(iq_size=16 * (i + 1)).validate(),
                         ltp=no_ltp(), warmup=150, measure=100)
               for i in range(2)]
    items = [(config, config.key()) for config in configs]
    calls = []
    real_key = SimConfig.key

    def counting_key(self):
        calls.append(self)
        return real_key(self)

    monkeypatch.setattr(SimConfig, "key", counting_key)
    outcomes = exec_mod._chunk_worker(items)
    assert calls == []
    monkeypatch.setattr(SimConfig, "key", real_key)
    assert [error for error, _, _ in outcomes] == [None, None]
    expected = [fresh_session.run(config, use_cache=False).stats
                for config in configs]
    assert [stats for _, stats, _ in outcomes] == expected


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_chunk_crash_retries_then_surfaces(tmp_path, monkeypatch):
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _crashing_chunk_worker)
    session = Session(cache_dir=str(tmp_path))
    executor = PoolExecutor(jobs=2, max_retries=1)
    events = []
    outcomes = list(executor.run(session, items_of(make_configs(2)),
                                 events.append))
    assert len(outcomes) == 2
    for exc in outcomes:
        assert isinstance(exc, WorkerFailure)
        assert "worker process crashed" in str(exc)
        assert exc.attempts == 2
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 2   # one retry per item
    assert counts["failed"] == 2
    assert "finished" not in counts


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_chunk_crash_recovers_on_retry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                       str(tmp_path / "crashed.marker"))
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _crash_once_chunk_worker)
    session = Session(cache_dir=str(tmp_path / "cache"))
    backend = PoolExecutor(jobs=2, batch_size=2, max_retries=1)
    events = []
    results = session.run_many(make_configs(4), use_cache=False,
                               backend=backend, progress=events.append)
    assert len(results) == 4
    counts = Counter(e.kind for e in events)
    assert counts["finished"] == 4
    assert counts["retried"] >= 1
    assert counts.get("failed", 0) == 0


#: the pytest process: the killing stand-ins below only ever kill a
#: forked pool worker, never this process
_TEST_PID = os.getpid()


def _kill_this_worker(death="sigkill"):
    assert os.getpid() != _TEST_PID, "a pool worker stand-in ran inline"
    if death == "exit":
        os._exit(1)
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_once_chunk_worker(items, finished=()):
    """SIGKILL the worker the first time the chosen point reaches it."""
    marker = os.environ["REPRO_TEST_KILL_MARKER"]
    victim = os.environ["REPRO_TEST_KILL_KEY"]
    if (any(key == victim for _, key in items)
            and not os.path.exists(marker)):
        with open(marker, "w") as handle:
            handle.write("killed")
        _kill_this_worker()
    return _REAL_CHUNK_WORKER(items, finished)


def _always_kill_chunk_worker(items, finished=()):
    _kill_this_worker(os.environ["REPRO_TEST_DEATH"])


def _drive_with_timeout(drive, timeout=60.0):
    """Run *drive* on a thread; fail (instead of hanging the suite)
    when it has not returned after *timeout* seconds."""
    outcome = {}

    def target():
        try:
            outcome["value"] = drive()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), (
        f"the pool drive hung for {timeout}s after a worker died")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_survives_a_killed_worker_and_matches_serial(tmp_path,
                                                          monkeypatch):
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48]})
    victim = spec.expand()[4].key()
    marker = tmp_path / "killed.marker"
    monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
    monkeypatch.setenv("REPRO_TEST_KILL_KEY", victim)
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _kill_once_chunk_worker)
    events = []

    def drive():
        with Session(cache_dir=str(tmp_path / "pool")) as session:
            return session.sweep(spec, use_cache=False,
                                 backend=PoolExecutor(jobs=2),
                                 progress=events.append)

    results = _drive_with_timeout(drive)
    assert marker.exists()  # the worker really died
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in baseline]
    retried = [e for e in events if e.kind == "retried"]
    assert victim in {e.key for e in retried}
    assert all("terminated abruptly" in e.error for e in retried)
    counts = Counter(e.kind for e in events)
    assert counts["finished"] == len(baseline)
    assert "failed" not in counts


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("death", ["sigkill", "exit"])
def test_pool_worker_killed_on_every_attempt_fails_its_points(
        tmp_path, monkeypatch, death, batch_size):
    """A worker that dies (by signal or by a bare exit) on every attempt
    ends its points in WorkerFailure instead of hanging the drive."""
    monkeypatch.setenv("REPRO_TEST_DEATH", death)
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _always_kill_chunk_worker)
    session = Session(cache_dir=str(tmp_path))
    executor = PoolExecutor(jobs=2, max_retries=2, batch_size=batch_size)
    events = []
    items = items_of(make_configs(3))
    resolved = _drive_with_timeout(
        lambda: list(executor.run(session, items, events.append)))
    assert len(resolved) == 3
    for exc in resolved:
        assert isinstance(exc, WorkerFailure)
        assert exc.attempts == 3  # one attempt + max_retries
        assert isinstance(exc.__cause__, BrokenProcessPool)
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 6  # two retries per point
    assert counts["failed"] == 3
    assert "finished" not in counts


def test_run_many_raises_worker_failure(tmp_path):
    session = Session(cache_dir=str(tmp_path))

    def always_crash(config, key):
        raise RuntimeError("boom")

    session._run = always_crash
    with pytest.raises(WorkerFailure, match="boom"):
        session.run_many(make_configs(1), use_cache=False,
                         backend=PoolExecutor(jobs=1, max_retries=0))


# ------------------------------------------------------------ coercion
def test_as_executor_rejects_non_backends():
    with pytest.raises(TypeError, match="not an execution backend"):
        as_executor(object())
    executor = PoolExecutor(jobs=1)
    assert as_executor(executor) is executor


# --------------------------------------------------------- batch sizes
def test_pool_chunked_results_match_serial(tmp_path):
    configs = make_configs(5)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        serial = session.run_many(configs, use_cache=False)
    with Session(cache_dir=str(tmp_path / "pool")) as session:
        chunked = session.run_many(
            configs, use_cache=False,
            backend=PoolExecutor(jobs=2, batch_size=2))
    assert [r.stats for r in chunked] == [r.stats for r in serial]


def test_default_jobs_reads_repro_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert exec_mod.default_jobs() == 3
    assert PoolExecutor()._resolved_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        exec_mod.default_jobs()
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        PoolExecutor()._resolved_jobs()
    # the env var means what jobs= does: 0 is one worker per CPU, and
    # a negative count is an error
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert exec_mod.default_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "-2")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        exec_mod.default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert exec_mod.default_jobs() == (os.cpu_count() or 1)


def test_failed_submission_does_not_leak_queued_futures(tmp_path):
    """A bad config fails the call before anything runs, and a later
    batch on the same session's executor runs only its own items."""
    session = Session(cache_dir=str(tmp_path))
    good = make_configs(1)[0]
    bad = SimConfig(workload="compute_int", core=baseline_params(),
                    ltp=no_ltp(), warmup=-5, measure=100)
    with pytest.raises(ValueError):
        session.run_many([good, bad], use_cache=False)
    events = []
    other = make_configs(2)[1]
    results = session.run_many([other], use_cache=False,
                               progress=events.append)
    assert [r.config.workload for r in results] == [other.workload]
    assert {e.key for e in events} == {other.key()}


# ---------------------------------------------------------- interrupts
class _Interrupt(Exception):
    """What the interrupting callbacks below raise."""


def _interrupting_progress(store, error):
    """A progress callback that raises *error* at the first
    ``finished`` event after a point has landed in *store*."""
    def progress(event):
        if event.kind == "finished" and len(store):
            raise error
    return progress


def _failing_store_add(store, error):
    """Make *store* raise *error* on every add after its first."""
    real_add = store.add

    def add(result):
        if len(store):
            raise error
        real_add(result)

    store.add = add


INTERRUPTED = [
    pytest.param(lambda: PoolExecutor(jobs=1), id="serial"),
    # one point per dispatch and more points than the pool keeps in
    # flight: some point always finishes after the first one landed
    pytest.param(lambda: PoolExecutor(jobs=2, batch_size=1),
                 id="process-pool",
                 marks=pytest.mark.skipif(not HAVE_FORK,
                                          reason="needs fork start method")),
]


@pytest.mark.parametrize("where", ["progress", "store-add"])
@pytest.mark.parametrize("make_executor", INTERRUPTED)
def test_an_interrupted_sweep_stops_cleanly_and_resumes(tmp_path,
                                                        make_executor,
                                                        where):
    """An exception raised by a callback or by the store mid-sweep
    propagates unchanged, leaves no worker process behind, keeps every
    point that landed, and a resume simulates only the rest."""
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48, 64]})
    store_path = tmp_path / "sweep.jsonl"
    error = _Interrupt(where) if where == "progress" else KeyboardInterrupt()
    with Session(cache_dir=str(tmp_path / "c1")) as session, \
            ResultStore(store_path) as store:
        progress = None
        if where == "progress":
            progress = _interrupting_progress(store, error)
        else:
            _failing_store_add(store, error)
        with pytest.raises(type(error)) as excinfo:
            session.sweep(spec, use_cache=False, backend=make_executor(),
                          store=store, progress=progress)
        landed = set(store.keys())
    assert excinfo.value is error
    assert multiprocessing.active_children() == []
    assert 1 <= len(landed) < len(spec)

    with ResultStore(store_path) as store:
        assert set(store.keys()) == landed  # what landed is durable
    with Session(cache_dir=str(tmp_path / "c2")) as session, \
            ResultStore(store_path) as store:
        results = session.sweep(spec, use_cache=False, store=store)
    assert {r.key for r in results if r.source == "store"} == landed
    assert sum(r.source == "simulated" for r in results) == \
        len(spec) - len(landed)
    with Session(cache_dir=str(tmp_path / "c3")) as session:
        serial = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in serial]


@pytest.mark.parametrize("make_executor", INTERRUPTED)
def test_an_executor_keeps_no_per_call_state(tmp_path, make_executor):
    executor = make_executor()
    constructed = dict(vars(executor))
    session = Session(cache_dir=str(tmp_path))

    def interrupt(event):
        if event.kind == "finished":
            raise _Interrupt("stop")

    with pytest.raises(_Interrupt):
        session.run_many(make_configs(4), use_cache=False,
                         backend=executor, progress=interrupt)
    assert vars(executor) == constructed
