"""``Session._drive`` is the only reader and writer of the result cache
for batched work: executors only simulate, a key the store holds
quarantined is re-simulated (never served from a poisoned cache entry),
and pool workers never touch a cache directory."""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.api import PoolExecutor, ResultStore, Session, SweepSpec
from repro.api.store import Annotation
from repro.harness.cachefile import ResultCache

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")


def stream_points():
    return SweepSpec(workloads=["stream_triad"], warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32]}).expand()


def disk_entry(session, key):
    with open(session.cache_dir / f"{key}.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", [
    pytest.param(lambda: PoolExecutor(jobs=1), id="serial"),
    pytest.param(lambda: PoolExecutor(jobs=2), marks=needs_fork,
                 id="process-pool"),
])
def test_quarantined_point_resimulates_and_heals_the_cache(tmp_path,
                                                           backend):
    configs = stream_points()
    path = tmp_path / "store.jsonl"
    cache_dir = str(tmp_path / "cache")
    with Session(cache_dir=cache_dir) as session, \
            ResultStore(path) as store:
        fresh = [r.stats for r in session.run_many(configs, store=store)]
        # poison both disk entries and quarantine both keys
        for config, stats in zip(configs, fresh):
            poisoned = dict(stats, cycles=stats["cycles"] // 2)
            (session.cache_dir / f"{config.key()}.json").write_text(
                json.dumps(poisoned))
            store.annotate(Annotation(key=config.key(), check="invariant",
                                      detail="poisoned"))
    with Session(cache_dir=cache_dir) as session, \
            ResultStore(path) as store:
        assert sorted(store.quarantined_keys()) == \
            sorted(c.key() for c in configs)
        results = session.run_many(configs, store=store,
                                   backend=backend())
        assert [r.source for r in results] == ["simulated"] * 2
        assert [r.stats for r in results] == fresh
        assert store.quarantined_keys() == []
        for config, stats in zip(configs, fresh):
            assert disk_entry(session, config.key()) == stats


@needs_fork
def test_pooled_run_writes_the_session_cache_from_the_parent(tmp_path,
                                                             monkeypatch):
    """A pooled ``run_many`` on a non-default session leaves one valid
    disk entry per distinct key in that session's cache directory, and
    every result-cache access happens in the driving process."""
    log = tmp_path / "cache-calls.log"

    def logged(name):
        original = getattr(ResultCache, name)

        def wrapper(self, key, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {name}\n")
            return original(self, key, *args, **kwargs)
        monkeypatch.setattr(ResultCache, name, wrapper)

    logged("lookup")
    logged("put")
    configs = SweepSpec(workloads=["compute_int", "stream_triad"],
                        warmup=150, measure=120,
                        axes={"core.iq_size": [16, 32]}).expand()
    with Session(cache_dir=str(tmp_path / "pooled")) as session:
        results = session.run_many(configs + configs[:2],
                                   backend=PoolExecutor(jobs=2))
        entries = sorted(p.stem for p in session.cache_dir.glob("*.json"))
        assert entries == sorted({c.key() for c in configs})
        assert not list(session.cache_dir.glob("*.tmp"))
        for result in results:
            assert disk_entry(session, result.key) == result.stats
    callers = {line.split()[0] for line in log.read_text().splitlines()}
    assert callers == {str(os.getpid())}


@pytest.mark.parametrize("entry", ["null", "[1, 2]", "{torn"],
                         ids=["null", "list", "unreadable"])
def test_a_disk_entry_that_is_no_object_is_a_miss(tmp_path, entry):
    (tmp_path / "k.json").write_text(entry)
    cache = ResultCache(str(tmp_path))
    assert cache.lookup("k") is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put("k", {"cycles": 1})
    assert ResultCache(str(tmp_path)).lookup("k") == ({"cycles": 1}, "disk")


@pytest.mark.parametrize("entry", [b"\xff{}", '{"a": 1}'.encode("utf-16")],
                         ids=["not-utf8", "utf16-object"])
def test_a_disk_entry_that_is_not_utf8_is_a_miss(tmp_path, entry):
    (tmp_path / "k.json").write_bytes(entry)
    cache = ResultCache(str(tmp_path))
    assert cache.lookup("k") is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_a_directory_in_place_of_an_entry_is_a_miss(tmp_path):
    (tmp_path / "k.json").mkdir()
    cache = ResultCache(str(tmp_path))
    assert cache.lookup("k") is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_a_disk_entry_is_read_whole(tmp_path):
    """An entry larger than one read still parses (reads run to EOF)."""
    value = {"blob": "x" * (3 << 16), "cycles": 1}
    (tmp_path / "k.json").write_text(json.dumps(value))
    assert ResultCache(str(tmp_path)).lookup("k") == (value, "disk")


@pytest.mark.parametrize("entry", ["null", "[1, 2]"], ids=["null", "list"])
def test_a_non_object_cache_entry_is_resimulated(tmp_path, entry):
    """``Session.run`` and the batched ``Session._drive`` path both
    re-simulate over such an entry, overwrite it, and store only the
    simulated statistics."""
    config = stream_points()[0]
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    entry_path = cache_dir / f"{config.key()}.json"
    entry_path.write_text(entry)
    with Session(cache_dir=str(cache_dir)) as session:
        result = session.run(config)
        assert result.source == "simulated"
        assert isinstance(result.stats, dict) and result.ipc > 0
        assert disk_entry(session, config.key()) == result.stats
    entry_path.write_text(entry)
    with Session(cache_dir=str(cache_dir)) as session, \
            ResultStore(tmp_path / "store.jsonl") as store:
        [batched] = session.run_many([config], store=store)
        assert batched.source == "simulated"
        assert batched.stats == result.stats
        assert store.get(config.key()).stats == result.stats
        assert disk_entry(session, config.key()) == result.stats


def _old_writer_bytes(path, value):
    """What ``ResultCache.put`` wrote before it encoded up front."""
    with open(path, "w") as handle:
        json.dump(value, handle)
    return path.read_bytes()


@pytest.mark.parametrize("value", [
    {"cycles": 1, "ipc": 0.5, "workload": "stream_triad"},
    {"nested": {"a": [1, 2.25, None, True]}, "text": "café ✓"},
    {"nan": float("nan"), "inf": float("inf"), "big": 2 ** 70},
], ids=["flat", "nested-unicode", "non-finite"])
def test_put_writes_the_old_writers_bytes(tmp_path, value):
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put("k", value)
    written = (tmp_path / "cache" / "k.json").read_bytes()
    assert written == _old_writer_bytes(tmp_path / "old.json", value)


def test_a_tracked_cache_entry_rewrites_byte_identical(tmp_path):
    tracked = sorted((Path(__file__).resolve().parents[1]
                      / ".simcache").glob("*.json"))
    assert tracked, "the tracked .simcache holds differential fixtures"
    value = json.loads(tracked[0].read_text())
    ResultCache(str(tmp_path)).put("k", value)
    assert (tmp_path / "k.json").read_bytes() == _old_writer_bytes(
        tmp_path / "old.json", value)


def test_a_value_json_cannot_encode_leaves_nothing_behind(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(TypeError):
        cache.put("k", {"a": {1, 2}})
    assert list(tmp_path.iterdir()) == []
    assert cache.lookup("k") is None


def test_a_failed_disk_write_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    cache.put("k", {"cycles": 1})
    assert list(tmp_path.iterdir()) == []
    # best-effort disk: the memory cache still serves the value
    assert cache.lookup("k") == ({"cycles": 1}, "memory")


def test_put_makes_the_directory_only_when_missing(tmp_path, monkeypatch):
    made = []
    real_mkdir = type(tmp_path).mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(type(tmp_path), "mkdir", counting_mkdir)
    cache = ResultCache(str(tmp_path / "cache"))
    for n in range(3):
        cache.put(f"k{n}", {"cycles": n})
    assert made == [tmp_path / "cache"]
    assert ResultCache(str(tmp_path / "cache")).get("k2") == {"cycles": 2}
