"""Trace-shared batched execution: batch formation over the items, the
session :class:`BatchRunner`, batched-vs-unbatched bit identity across
serial and pool drives, and the sweep inspector seeing batched and
unbatched runs identically."""

import multiprocessing
from collections import Counter

import pytest

from repro.api import (PoolExecutor, ResultStore, Session, SweepInspector,
                       SweepSpec)
from repro.api.exec import _batch_key, _batches, _Point
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp
from repro.workloads import mixes

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")

FLAKY = "batched_flaky"


def config_for(workload="compute_int", iq=64, warmup=150, measure=120):
    return SimConfig(workload=workload,
                     core=CoreParams(iq_size=iq).validate(), ltp=no_ltp(),
                     warmup=warmup, measure=measure)


def one_identity_spec(points=4, workload="compute_int", warmup=150,
                      measure=120):
    """*points* configs sharing one trace identity (one batch)."""
    return SweepSpec(workloads=[workload], warmup=warmup, measure=measure,
                     axes={"core.iq_size": [16 * (i + 1)
                                            for i in range(points)]})


class _Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def per_key(self):
        table = {}
        for event in self.events:
            table.setdefault(event.key, Counter())[event.kind] += 1
        return table


# ----------------------------------------------------------------------
# batch formation over the items
# ----------------------------------------------------------------------
def points(*configs):
    """``run()`` bookkeeping for *configs*, indexed in order."""
    return [_Point(i, config, config.key())
            for i, config in enumerate(configs)]


def test_batch_key_separates_workload_and_length():
    base, same, other_workload, other_length = (
        config_for(), config_for(iq=32), config_for("stream_triad"),
        config_for(measure=130))
    assert _batch_key(base) == _batch_key(same) == ("compute_int", 270)
    for config in (other_workload, other_length):
        assert _batch_key(config) != _batch_key(base)


def test_next_batch_groups_identity_and_preserves_queue_order():
    a1, b1, a2, b2 = points(config_for(), config_for("stream_triad"),
                            config_for(iq=32),
                            config_for("stream_triad", iq=32))
    first, second = _batches([a1, b1, a2, b2], None)
    assert first == [a1, a2]
    assert _batch_key(first[0].config) == ("compute_int", 270)
    assert second == [b1, b2]


def test_batches_respect_limit():
    same = points(*[config_for(iq=16 * (i + 1)) for i in range(5)])
    capped, rest = _batches(same[1:], 3)
    assert capped == same[1:4]
    assert rest == same[4:]
    # a capped identity resumes after points that came first
    a1, a2, b1, a3 = points(config_for(), config_for(iq=32),
                            config_for("stream_triad"), config_for(iq=48))
    assert _batches([a1, a2, b1, a3], 2) == [[a1, a2], [b1], [a3]]


def test_next_batch_limit_one_disables_grouping():
    same = points(*[config_for(iq=16 * (i + 1)) for i in range(3)])
    assert _batches(same, 1) == [[point] for point in same]


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        PoolExecutor(jobs=1, batch_size=0)


# ----------------------------------------------------------------------
# the session BatchRunner
# ----------------------------------------------------------------------
def test_batch_runner_matches_session_run_bit_identical(tmp_path):
    configs = [config_for(iq=iq) for iq in (16, 48, 96)]
    with Session(cache_dir=str(tmp_path / "single")) as session:
        singles = [session.run(c, use_cache=False) for c in configs]
    with Session(cache_dir=str(tmp_path / "batched")) as session:
        runner = session.batch_runner("compute_int", 270)
        batched = [runner.run(c) for c in configs]
    assert [r.stats for r in batched] == [r.stats for r in singles]
    assert all(not r.cached for r in batched)


def test_batch_runner_rejects_foreign_configs(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        runner = session.batch_runner("compute_int", 270)
        with pytest.raises(ValueError, match="does not belong"):
            runner.run(config_for("stream_triad"))
        with pytest.raises(ValueError, match="does not belong"):
            runner.run(config_for(measure=121))
        with pytest.raises(ValueError, match="positive"):
            session.batch_runner("compute_int", 0)


def test_serial_executor_simulates_a_cached_key(tmp_path):
    """Executors only simulate: a key the session's result cache holds
    is still simulated when submitted, and the executor leaves the
    cache as it found it (``Session._drive`` owns it)."""
    config = config_for()
    with Session(cache_dir=str(tmp_path)) as session:
        fresh = session.run(config, use_cache=False).stats
        poisoned = dict(fresh, cycles=fresh["cycles"] // 2)
        session.results.put(config.key(), poisoned)
        [result] = PoolExecutor(jobs=1).run(
            session, [(0, config, config.key())])
        assert result.source == "simulated" and not result.cached
        assert result.stats == fresh
        assert session.results.get(config.key()) == poisoned


def test_batch_runner_prep_failure_surfaces_then_retries(tmp_path,
                                                         monkeypatch):
    """A transient trace failure costs the calling point only; the
    next call re-attempts preparation instead of poisoning the
    session's trace cache."""
    state = {"tripped": False}
    inner_factory = mixes._FACTORIES["compute_int"]

    class _FlakyWorkload:
        def __init__(self):
            self._inner = inner_factory()

        def trace(self, length):
            if not state["tripped"]:
                state["tripped"] = True
                raise RuntimeError("flaky trace generation")
            return self._inner.trace(length)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    monkeypatch.setitem(mixes._FACTORIES, FLAKY, _FlakyWorkload)
    config = config_for(FLAKY)
    with Session(cache_dir=str(tmp_path)) as session:
        runner = session.batch_runner(FLAKY, 270)
        with pytest.raises(RuntimeError, match="flaky"):
            runner.run(config)
        result = runner.run(config)
    assert result.stats["committed"] > 0


# ----------------------------------------------------------------------
# batched == unbatched, executor by executor
# ----------------------------------------------------------------------
def test_serial_batched_matches_unbatched_with_identical_events(tmp_path):
    spec = one_identity_spec(4)
    outcomes = {}
    for label, batch_size in (("batched", None), ("unbatched", 1)):
        recorder = _Recorder()
        executor = PoolExecutor(jobs=1, batch_size=batch_size)
        with Session(cache_dir=str(tmp_path / label)) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor, progress=recorder)
        outcomes[label] = (results, recorder)
    batched, b_rec = outcomes["batched"]
    unbatched, u_rec = outcomes["unbatched"]
    assert [r.stats for r in batched] == [r.stats for r in unbatched]
    assert [r.key for r in batched] == [r.key for r in unbatched]
    # the event stream is indistinguishable: same kinds, same keys,
    # same order, exactly once per point
    assert ([(e.kind, e.key) for e in b_rec.events]
            == [(e.kind, e.key) for e in u_rec.events])
    for counts in b_rec.per_key().values():
        assert counts == Counter(submitted=1, started=1, finished=1)


@needs_fork
def test_pool_batched_matches_serial_bit_identical(tmp_path):
    spec = one_identity_spec(4)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    executor = PoolExecutor(jobs=2, batch_size=2)
    with Session(cache_dir=str(tmp_path / "pool")) as session:
        results = session.sweep(spec, use_cache=False, backend=executor)
    assert [r.stats for r in results] == [r.stats for r in baseline]


# ----------------------------------------------------------------------
# the inspector sees batched and unbatched runs identically
# ----------------------------------------------------------------------
class _TamperingSession(Session):
    """Implants a consistent 4x-IPC outlier on one chosen point."""

    def __init__(self, tamper_key, **kwargs):
        super().__init__(**kwargs)
        self._tamper_key = tamper_key

    def _execute(self, config):
        stats = super()._execute(config)
        if config.key() == self._tamper_key:
            stats = dict(stats)
            stats["cycles"] = max(1, stats["cycles"] // 4)
            stats["ipc"] = stats["committed"] / stats["cycles"]
            stats["cpi"] = stats["cycles"] / stats["committed"]
        return stats


def _outlier_spec():
    """Seven near-identical points: ROB sizes that never bind, so the
    rolling baseline is tight and the implanted outlier unmistakable."""
    return SweepSpec(workloads=["compute_int"], warmup=150, measure=120,
                     axes={"core.rob_size": [192 + 16 * i
                                             for i in range(7)]})


def test_inspector_flags_identically_batched_and_unbatched(tmp_path):
    spec = _outlier_spec()
    tamper_key = spec.expand()[5].key()
    flagged = {}
    for label, batch_size in (("batched", None), ("unbatched", 1)):
        store = ResultStore(tmp_path / f"{label}.jsonl")
        inspector = SweepInspector(store=store)
        executor = PoolExecutor(jobs=1, batch_size=batch_size)
        with _TamperingSession(
                tamper_key,
                cache_dir=str(tmp_path / f"cache-{label}")) as session:
            with store:
                session.sweep(spec, use_cache=False, backend=executor,
                              store=store, inspect=inspector)
        flagged[label] = [(a.key, a.check) for a in inspector.anomalies]
        assert inspector.quarantined == [tamper_key]
        reopened = ResultStore(tmp_path / f"{label}.jsonl")
        assert list(reopened.quarantined_keys()) == [tamper_key]
    assert flagged["batched"] == flagged["unbatched"]


def test_quarantined_keys_resume_as_batchable_misses(tmp_path):
    """A clean batched resume re-simulates exactly the quarantined
    keys and lands bit-identical to an untampered run."""
    spec = _outlier_spec()
    tamper_key = spec.expand()[5].key()
    store = ResultStore(tmp_path / "store.jsonl")
    inspector = SweepInspector(store=store)
    with _TamperingSession(
            tamper_key, cache_dir=str(tmp_path / "tampered")) as session:
        with store:
            session.sweep(spec, use_cache=False,
                          backend=PoolExecutor(jobs=1),
                          store=store, inspect=inspector)
    assert inspector.quarantined == [tamper_key]
    with Session(cache_dir=str(tmp_path / "clean")) as session:
        with store:
            results = session.sweep(spec, use_cache=False,
                                    backend=PoolExecutor(jobs=1),
                                    store=store)
    resimulated = [r.key for r in results if not r.cached]
    assert resimulated == [tamper_key]
    with Session(cache_dir=str(tmp_path / "reference")) as session:
        reference = session.sweep(spec, use_cache=False)
    final = {key: row.stats
             for key, row in ResultStore(tmp_path / "store.jsonl")
             .load().items()}
    assert final == {r.key: r.stats for r in reference}
    assert not list(ResultStore(tmp_path / "store.jsonl")
                    .quarantined_keys())
