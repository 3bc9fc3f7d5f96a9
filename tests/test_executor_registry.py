"""The executor name table: the three names, CLI flag mapping,
string-backend resolution, and the spec carrying no executor."""

import pytest

from repro.api import (MockExecutor, RemoteExecutor, Session, SweepSpec,
                       as_executor)
from repro.api.exec import PoolExecutor, SerialExecutor
from repro.api.executors import EXECUTORS, executor_from_options


def test_builtin_executors_are_registered():
    assert list(EXECUTORS) == ["serial", "process-pool", "remote"]
    # the test double is built from its class, never by name
    assert "mock" not in EXECUTORS
    assert MockExecutor not in [cls for cls, _ in EXECUTORS.values()]


def test_unknown_name_lists_known_ones():
    with pytest.raises(ValueError, match="unknown executor 'warp'") as exc:
        executor_from_options("warp")
    for name in ("serial", "process-pool", "remote"):
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
    with pytest.raises(ValueError, match="does not take --workers"):
        executor_from_options("process-pool", workers="a:1")
    with pytest.raises(ValueError, match="does not take --jobs"):
        executor_from_options("remote", jobs=2)
    remote = executor_from_options("remote", workers="127.0.0.1:7777",
                                   max_retries=3)
    assert isinstance(remote, RemoteExecutor)
    assert remote.addresses == [("127.0.0.1", 7777)]
    assert remote.max_retries == 3


def test_remote_requires_a_fleet():
    with pytest.raises(ValueError, match="at least one worker"):
        executor_from_options("remote")


def test_local_executors_are_registry_entries():
    # the table's entries are the executor classes themselves
    assert EXECUTORS["serial"][0] is SerialExecutor
    assert EXECUTORS["process-pool"][0] is PoolExecutor
    assert EXECUTORS["remote"][0] is RemoteExecutor


def test_session_resolves_string_backends(tmp_path):
    session = Session(cache_dir=str(tmp_path), backend="serial")
    assert isinstance(session.backend, SerialExecutor)
    pooled = Session(cache_dir=str(tmp_path), backend="process-pool")
    assert isinstance(pooled.backend, PoolExecutor)
    # "remote" resolves to the remote executor, which needs a fleet
    with pytest.raises(ValueError, match="at least one worker"):
        Session(cache_dir=str(tmp_path), backend="remote")
    spec = SweepSpec(workloads=["compute_int"], warmup=150, measure=100)
    results = session.sweep(spec, use_cache=False, backend="serial")
    assert len(results) == 1 and results[0].backend == "serial"


def test_spec_executor_field_is_rejected():
    # where a sweep runs is the caller's choice, not the spec's
    payload = SweepSpec(workloads=["compute_int"], warmup=150,
                        measure=100).to_dict()
    assert "executor" not in payload
    with pytest.raises(ValueError, match="unknown sweep fields"):
        SweepSpec.from_dict({**payload, "executor": "remote"})
    with pytest.raises(TypeError):
        SweepSpec(workloads=["compute_int"], executor="serial")
