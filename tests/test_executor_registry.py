"""One executor class chosen by ``jobs``: the two ``backend=`` names,
``jobs`` semantics, and the spec carrying no executor."""

import importlib
import io

import pytest

import repro.api
from repro.api import Session, SweepSpec, as_executor
from repro.api import exec as exec_mod
from repro.api.exec import ExecutorBackend, PoolExecutor
from repro.cli import main
from tests.mock_executor import MockExecutor


def test_builtin_executors_are_registered():
    # the two names select the two jobs modes, labelled as named
    for name, jobs in (("serial", 1), ("process-pool", None)):
        executor = as_executor(name)
        assert (executor.jobs, executor.name) == (jobs, name)
    # the test double is built from its class, never by name
    with pytest.raises(ValueError, match="unknown executor 'mock'"):
        as_executor("mock")


def test_the_package_ships_no_mock_and_one_executor_module():
    # the mock is a test helper; the executor lives in repro.api.exec
    assert not hasattr(repro.api, "MockExecutor")
    assert "MockExecutor" not in repro.api.__all__
    for gone in ("repro.api.mock", "repro.api.executors"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
    # one concrete executor class; MockExecutor is the tests' own
    concrete = [value for value in vars(exec_mod).values()
                if isinstance(value, type)
                and issubclass(value, ExecutorBackend)
                and value is not ExecutorBackend]
    assert concrete == [PoolExecutor]
    assert issubclass(MockExecutor, ExecutorBackend)


def test_unknown_name_lists_known_ones():
    with pytest.raises(ValueError, match="unknown executor 'warp'") as exc:
        as_executor("warp")
    for name in ("serial", "process-pool"):
        assert name in str(exc.value)
    with pytest.raises(ValueError, match="unknown executor 'mock'"):
        Session(backend="mock")
    with pytest.raises(TypeError, match="not an execution backend"):
        as_executor(42)


def test_cli_flags_build_the_executor(fresh_session, monkeypatch):
    # --jobs, --max-retries and --batch-size go straight to the one
    # executor class; --jobs 1 (the default) runs in-process
    built = []

    def sweep(spec, backend=None, **kwargs):
        built.append(backend)
        return []

    monkeypatch.setattr(fresh_session, "sweep", sweep)
    for flags in ([], ["--jobs", "2", "--max-retries", "3",
                       "--batch-size", "4"], ["--jobs", "0"]):
        assert main(["sweep", "ltp-queues", *flags],
                    out=io.StringIO()) == 0
    assert [(b.jobs, b.max_retries, b.batch_size, b.name)
            for b in built] == [(1, 1, None, "serial"),
                                (2, 3, 4, "process-pool"),
                                (None, 1, None, "process-pool")]
    assert all(type(b) is PoolExecutor for b in built)


def test_pool_jobs_zero_means_one_worker_per_cpu(monkeypatch):
    # one meaning for 0 everywhere: the constructor and --jobs 0 both
    # mean the pool default
    monkeypatch.setenv("REPRO_JOBS", "3")
    pool = PoolExecutor(jobs=0)
    assert pool.jobs is None
    assert pool._resolved_jobs() == 3
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        PoolExecutor(jobs=-1)


def test_remote_is_an_unknown_executor(tmp_path):
    # "remote" names no executor
    for build in (lambda: as_executor("remote"),
                  lambda: Session(cache_dir=str(tmp_path),
                                  backend="remote")):
        with pytest.raises(ValueError,
                           match="unknown executor 'remote'") as exc:
            build()
        assert "choose from: serial, process-pool" in str(exc.value)


def test_local_executors_are_registry_entries():
    # each name's entry is the one executor class itself
    for name in ("serial", "process-pool"):
        assert type(as_executor(name)) is PoolExecutor


def test_session_resolves_string_backends(tmp_path):
    session = Session(cache_dir=str(tmp_path), backend="serial")
    assert isinstance(session.backend, PoolExecutor)
    assert session.backend.jobs == 1
    pooled = Session(cache_dir=str(tmp_path), backend="process-pool")
    assert isinstance(pooled.backend, PoolExecutor)
    assert pooled.backend.jobs is None
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
