"""The executor name table: the two names, CLI flag mapping,
string-backend resolution, and the spec carrying no executor."""

import pytest

from repro.api import MockExecutor, Session, SweepSpec, as_executor
from repro.api.exec import PoolExecutor, SerialExecutor
from repro.api.executors import EXECUTORS, executor_from_options


def test_builtin_executors_are_registered():
    assert list(EXECUTORS) == ["serial", "process-pool"]
    # the test double is built from its class, never by name
    assert "mock" not in EXECUTORS
    assert MockExecutor not in [cls for cls, _ in EXECUTORS.values()]


def test_unknown_name_lists_known_ones():
    with pytest.raises(ValueError, match="unknown executor 'warp'") as exc:
        executor_from_options("warp")
    for name in ("serial", "process-pool"):
        assert name in str(exc.value)
    with pytest.raises(ValueError, match="unknown executor 'mock'"):
        Session(backend="mock")
    with pytest.raises(TypeError, match="not an execution backend"):
        as_executor(42)


def test_executor_from_options_maps_cli_flags():
    # serial IS one worker: --jobs 1 composes
    assert isinstance(executor_from_options("serial", jobs=1),
                      SerialExecutor)
    with pytest.raises(ValueError, match="does not take --jobs"):
        executor_from_options("serial", jobs=4)
    # 0 = one worker per CPU (the pool default)
    pool = executor_from_options("process-pool", jobs=0)
    assert pool.jobs is None
    pool = executor_from_options("process-pool", jobs=2, max_retries=3,
                                 batch_size=4)
    assert (pool.jobs, pool.max_retries, pool.batch_size) == (2, 3, 4)


def test_remote_is_an_unknown_executor(tmp_path):
    # "remote" names no executor
    for build in (lambda: executor_from_options("remote"),
                  lambda: Session(cache_dir=str(tmp_path),
                                  backend="remote")):
        with pytest.raises(ValueError,
                           match="unknown executor 'remote'") as exc:
            build()
        assert "choose from: serial, process-pool" in str(exc.value)


def test_local_executors_are_registry_entries():
    # the table's entries are the executor classes themselves
    assert EXECUTORS["serial"][0] is SerialExecutor
    assert EXECUTORS["process-pool"][0] is PoolExecutor


def test_session_resolves_string_backends(tmp_path):
    session = Session(cache_dir=str(tmp_path), backend="serial")
    assert isinstance(session.backend, SerialExecutor)
    pooled = Session(cache_dir=str(tmp_path), backend="process-pool")
    assert isinstance(pooled.backend, PoolExecutor)
    spec = SweepSpec(workloads=["compute_int"], warmup=150, measure=100)
    results = session.sweep(spec, use_cache=False, backend="serial")
    assert len(results) == 1 and results[0].backend == "serial"


def test_spec_executor_field_is_rejected():
    # where a sweep runs is the caller's choice, not the spec's
    payload = SweepSpec(workloads=["compute_int"], warmup=150,
                        measure=100).to_dict()
    assert "executor" not in payload
    with pytest.raises(ValueError, match="unknown sweep fields"):
        SweepSpec.from_dict({**payload, "executor": "process-pool"})
    with pytest.raises(TypeError):
        SweepSpec(workloads=["compute_int"], executor="serial")
