"""Backend-equivalence: serial and process-pool execution must produce
identical statistics (the execution-mode-invariant signature and more)."""


import pytest

from repro.api import PoolExecutor, Session
from repro.core.params import baseline_params, ltp_params
from repro.harness.config import SimConfig
from repro.ltp.config import limit_ltp, no_ltp

#: scalar statistics mirrored from SimStats.equivalence_signature();
#: occupancy integrals surface as avg_*/peak_* in the flattened dict
SIGNATURE_KEYS = (
    "cycles", "committed", "committed_loads", "committed_stores",
    "committed_branches", "fetched", "renamed", "issued",
    "branch_mispredicts", "memory_violations", "ltp_parked",
    "ltp_released", "ltp_enabled_cycles", "long_latency_loads",
    "iq_writes", "rf_reads", "rf_writes", "ltp_writes", "ltp_reads",
    "ipc",
)


def _configs():
    return [
        SimConfig(workload="compute_int", core=baseline_params(),
                  ltp=no_ltp(), warmup=200, measure=150),
        SimConfig(workload="stream_triad", core=baseline_params(),
                  ltp=no_ltp(), warmup=200, measure=150),
        SimConfig(workload="lattice_milc", core=ltp_params(),
                  ltp=limit_ltp("nu"), warmup=200, measure=150),
    ]


def _signature(stats: dict) -> dict:
    sig = {key: stats[key] for key in SIGNATURE_KEYS}
    sig.update({key: value for key, value in stats.items()
                if key.startswith(("avg_", "peak_"))})
    return sig


def test_serial_and_pool_backends_are_equivalent(tmp_path):
    serial = Session(cache_dir=str(tmp_path / "serial"),
                     backend=PoolExecutor(jobs=1))
    pooled = Session(cache_dir=str(tmp_path / "pooled"),
                     backend=PoolExecutor(jobs=2))
    serial_results = serial.run_many(_configs(), use_cache=False)
    pooled_results = pooled.run_many(_configs(), use_cache=False)
    for a, b in zip(serial_results, pooled_results):
        assert _signature(a.stats) == _signature(b.stats)
        assert a.stats == b.stats  # the full dict, not just the signature
        assert a.backend == "serial"
        assert b.backend == "process-pool"


def test_pool_backend_writes_the_sessions_cache_dir(tmp_path):
    session = Session(cache_dir=str(tmp_path / "pool"),
                      backend=PoolExecutor(jobs=2))
    results = session.run_many(_configs())
    files = list((tmp_path / "pool").glob("*.json"))
    assert len(files) == len(_configs())
    # the parent re-inserted every worker result into its memory cache
    again = session.run_many(_configs())
    assert all(r.source == "memory" for r in again)
    assert [r.stats for r in again] == [r.stats for r in results]


def test_pool_backend_degrades_to_serial_for_single_item(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    backend = PoolExecutor(jobs=4)
    results = session.run_many(_configs()[:1], use_cache=False,
                               backend=backend)
    assert results[0]["committed"] == 150


def test_pool_jobs_one_runs_in_process(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    backend = PoolExecutor(jobs=1)
    results = session.run_many(_configs(), use_cache=False,
                               backend=backend)
    assert [r["workload"] for r in results] == \
        [c.workload for c in _configs()]


def test_custom_executor_subclass_plugs_in(tmp_path):
    """A custom backend subclasses PoolExecutor/ExecutorBackend."""

    class CountingExecutor(PoolExecutor):
        name = "counting"

        def __init__(self):
            super().__init__(jobs=1)
            self.calls = 0

        def run(self, session, items, emit=None):
            items = list(items)
            self.calls += len(items)
            return super().run(session, items, emit)

    backend = CountingExecutor()
    session = Session(cache_dir=str(tmp_path), backend=backend)
    results = session.run_many(_configs()[:2], use_cache=False)
    assert backend.calls == 2
    assert all(r.backend == "counting" for r in results)


def test_iterator_style_backend_is_rejected(tmp_path):
    """A bare ``name`` + ``execute()`` object is not an executor."""

    class IteratorBackend:
        name = "iterator"

        def execute(self, session, items):
            yield from ()

    session = Session(cache_dir=str(tmp_path))
    with pytest.raises(TypeError, match="not an execution backend"):
        session.run_many(_configs()[:1], use_cache=False,
                         backend=IteratorBackend())
