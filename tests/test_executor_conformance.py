"""Shared conformance suite over every executor.

Each test is parametrized over three executors — the one executor
class in-process (``PoolExecutor(jobs=1)``, labelled ``serial``),
pooled (``jobs=2``, labelled ``process-pool``) and the mock — and
drives the same contract through each:

* lifecycle events are exactly-once per submitted configuration,
* retry exhaustion surfaces :class:`~repro.api.exec.WorkerFailure`
  with the attempt count,
* a bound :class:`~repro.api.store.ResultStore` receives every landed
  point,
* real executors produce statistics bit-identical to a serial run,
* the batched contract: trace-identical points grouped into one
  dispatched batch keep exactly-once events, and a mid-batch failure
  retries only the failing points with per-point attempt counts.

A guard test asserts the harness table covers both ``jobs`` modes and
the mock, under the labels their results carry.
"""

import multiprocessing
from collections import Counter

import pytest

from repro.api import (PoolExecutor, ResultStore, Session, SweepSpec,
                       WorkerFailure, as_executor)
from repro.core.params import CoreParams, baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp
from repro.workloads import mixes
from tests.mock_executor import MockExecutor

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")

#: the workload name conformance tests inject to force failures
BOOM = "conformance_boom"


class _BoomWorkload:
    """A workload whose trace generation always raises."""

    def trace(self, length):
        raise RuntimeError("conformance boom")


@pytest.fixture
def boom_workload(monkeypatch):
    monkeypatch.setitem(mixes._FACTORIES, BOOM, _BoomWorkload)


def make_configs(count=3, workloads=None):
    workloads = workloads or ["compute_int", "stream_triad",
                              "lattice_milc", "sparse_gather"]
    return [SimConfig(workload=workloads[i % len(workloads)],
                      core=baseline_params(), ltp=no_ltp(),
                      warmup=150,
                      measure=100 + 10 * (i // len(workloads)))
            for i in range(count)]


# ----------------------------------------------------------------------
# the harness table: name -> builder(max_retries, fail_indices) ->
# executor.  `fail_indices` tells script-driven
# executors (mock) which batch indexes must fail permanently; real
# executors fail through the injected BOOM workload instead.
# ----------------------------------------------------------------------
def _serial(max_retries, fail_indices):
    return PoolExecutor(jobs=1, max_retries=max_retries)


def _pool(max_retries, fail_indices):
    return PoolExecutor(jobs=2, batch_size=1, max_retries=max_retries)


def _mock(max_retries, fail_indices):
    script = {index: "fail" for index in fail_indices}
    return MockExecutor(script=script or None, max_retries=max_retries)


HARNESSES = {
    "serial": _serial,
    "process-pool": _pool,
    "mock": _mock,
}
#: executors that really simulate (stats comparable to serial)
REAL = ("serial", "process-pool")

HARNESS_PARAMS = [
    pytest.param(name, marks=needs_fork)
    if name == "process-pool" else name
    for name in sorted(HARNESSES)
]


def test_every_registered_executor_has_conformance_coverage():
    # both jobs modes of the one executor class (the two backend=
    # names), plus the mock (built directly, never by name): each
    # harness row is named by the label its results carry
    assert {as_executor(name).name for name in REAL} == set(REAL)
    for name, build in HARNESSES.items():
        assert build(1, set()).name == name


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
# the contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", HARNESS_PARAMS)
def test_lifecycle_events_exactly_once(name, tmp_path):
    configs = make_configs(3)
    recorder = _Recorder()
    executor = HARNESSES[name](1, set())
    session = Session(cache_dir=str(tmp_path / "session"))
    results = session.run_many(configs, use_cache=False,
                               backend=executor,
                               progress=recorder)
    assert len(results) == 3
    per_key = recorder.per_key()
    assert len(per_key) == 3
    for config in configs:
        assert per_key[config.key()] == Counter(
            submitted=1, started=1, finished=1)


@pytest.mark.parametrize("name", HARNESS_PARAMS)
def test_retry_exhaustion_surfaces_worker_failure(name, tmp_path,
                                                  boom_workload):
    configs = make_configs(1) + [
        SimConfig(workload=BOOM, core=baseline_params(), ltp=no_ltp(),
                  warmup=150, measure=100)]
    recorder = _Recorder()
    executor = HARNESSES[name](1, {1})
    session = Session(cache_dir=str(tmp_path / "session"))
    with pytest.raises(WorkerFailure) as excinfo:
        session.run_many(configs, use_cache=False,
                         backend=executor, progress=recorder)
    # one initial attempt + max_retries re-dispatches, then surfaced
    assert excinfo.value.attempts == 2
    boom_key = configs[1].key()
    counts = recorder.per_key()[boom_key]
    assert counts["submitted"] == 1
    assert counts["retried"] == 1
    assert counts["failed"] == 1
    assert counts["finished"] == 0


@pytest.mark.parametrize("name", HARNESS_PARAMS)
def test_bound_store_appends_points_as_they_land(name, tmp_path):
    configs = make_configs(3)
    executor = HARNESSES[name](1, set())
    session = Session(cache_dir=str(tmp_path / "session"))
    with ResultStore(tmp_path / "store.jsonl") as store:
        results = session.run_many(configs, use_cache=False,
                                   backend=executor, store=store)
        assert set(store.keys()) == {c.key() for c in configs}
        for result in results:
            assert store.get(result.key).stats == result.stats


@pytest.mark.parametrize("name",
                         [n for n in HARNESS_PARAMS
                          if (n if isinstance(n, str)
                              else n.values[0]) in REAL])
def test_stats_bit_identical_to_serial(name, tmp_path):
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32]})
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    executor = HARNESSES[name](1, set())
    with Session(cache_dir=str(tmp_path / "session")) as session:
        results = session.sweep(spec, use_cache=False,
                                backend=executor)
    assert [r.stats for r in results] == [r.stats for r in baseline]


# ----------------------------------------------------------------------
# the batched contract: grouped dispatch must be indistinguishable
# ----------------------------------------------------------------------
def make_batch_configs(count=4, workload="compute_int"):
    """*count* configs sharing one trace identity (hence one batch)."""
    return [SimConfig(workload=workload,
                      core=CoreParams(iq_size=16 * (i + 1)).validate(),
                      ltp=no_ltp(), warmup=150, measure=120)
            for i in range(count)]


def build_batched(name, max_retries, fail_indices):
    """The harness executor with batching forced on (cap 4)."""
    executor = HARNESSES[name](max_retries,
                               fail_indices)
    executor.batch_size = 4
    return executor


@pytest.mark.parametrize("name", HARNESS_PARAMS)
def test_batched_lifecycle_events_exactly_once(name, tmp_path):
    """One batch of four points: still one submitted/started/finished
    triplet per point, never a per-batch event."""
    configs = make_batch_configs(4)
    recorder = _Recorder()
    executor = build_batched(name, 1, set())
    session = Session(cache_dir=str(tmp_path / "session"))
    results = session.run_many(configs, use_cache=False,
                               backend=executor, progress=recorder)
    assert len(results) == 4
    per_key = recorder.per_key()
    assert len(per_key) == 4
    for config in configs:
        assert per_key[config.key()] == Counter(
            submitted=1, started=1, finished=1)


@pytest.mark.parametrize("name", HARNESS_PARAMS)
def test_mid_batch_failure_retries_only_failing_points(name, tmp_path,
                                                       boom_workload):
    """Two doomed points share a batch: each fails and retries
    individually (its own attempt count), and a clean batch alongside
    is untouched by their failure."""
    configs = make_batch_configs(2) + [
        SimConfig(workload=BOOM,
                  core=CoreParams(iq_size=16 * (i + 1)).validate(),
                  ltp=no_ltp(), warmup=150, measure=120)
        for i in range(2)]
    recorder = _Recorder()
    executor = build_batched(name, 1, {2, 3})
    session = Session(cache_dir=str(tmp_path / "session"))
    with pytest.raises(WorkerFailure) as excinfo:
        session.run_many(configs, use_cache=False,
                         backend=executor, progress=recorder)
    assert excinfo.value.attempts == 2
    per_key = recorder.per_key()
    for config in configs[:2]:
        counts = per_key[config.key()]
        assert counts["finished"] == 1
        assert counts["retried"] == 0 and counts["failed"] == 0
    for config in configs[2:]:
        counts = per_key[config.key()]
        assert counts["submitted"] == 1
        assert counts["retried"] == 1
        assert counts["failed"] == 1
        assert counts["finished"] == 0

