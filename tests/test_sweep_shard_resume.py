"""Sharding and resume semantics: disjoint exact covers, key-stable
assignment, store-backed resume, and sharded-vs-serial equivalence."""

import pytest

from repro.api import (PoolExecutor, ResultStore, Session, SweepSpec,
                       merge_stores, parse_shard)
from repro.api.spec import shard_of


def tiny_spec(workloads=("compute_int", "stream_triad"),
              iq_sizes=(16, 32, 64)):
    return SweepSpec(workloads=list(workloads),
                     axes={"core.iq_size": list(iq_sizes)},
                     warmup=150, measure=120)


# ------------------------------------------------------------- sharding
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7])
def test_shard_is_disjoint_exact_cover(count):
    """Uneven k included: every point lands in exactly one shard."""
    spec = tiny_spec()
    full = [config.key() for config in spec.expand()]
    shards = [spec.shard(index, count) for index in range(count)]
    union = [config.key() for shard in shards for config in shard]
    assert sorted(union) == sorted(full)
    assert len(union) == len(set(union))  # pairwise disjoint


def test_shard_preserves_expansion_order():
    spec = tiny_spec()
    full = [config.key() for config in spec.expand()]
    for index in range(3):
        keys = [config.key() for config in spec.shard(index, 3)]
        positions = [full.index(key) for key in keys]
        assert positions == sorted(positions)


def test_shard_assignment_is_stable_by_key():
    """Growing an axis must not move existing points between shards."""
    small = tiny_spec(iq_sizes=(16, 32))
    large = tiny_spec(iq_sizes=(16, 32, 64))  # superset of points
    small_assignment = {config.key(): shard_of(config.key(), 4)
                        for config in small.expand()}
    large_assignment = {config.key(): shard_of(config.key(), 4)
                        for config in large.expand()}
    for key, shard in small_assignment.items():
        assert large_assignment[key] == shard


def test_shard_validates_arguments():
    spec = tiny_spec()
    with pytest.raises(ValueError):
        spec.shard(0, 0)
    with pytest.raises(ValueError):
        spec.shard(4, 4)
    with pytest.raises(ValueError):
        spec.shard(-1, 4)


def test_parse_shard():
    assert parse_shard("0/4") == (0, 4)
    assert parse_shard("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "1", "a/b", "1/0", ""):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_sweep_id_stable_and_spec_sensitive():
    assert tiny_spec().sweep_id() == tiny_spec().sweep_id()
    assert tiny_spec().sweep_id() != \
        tiny_spec(iq_sizes=(16, 32)).sweep_id()


# --------------------------------------------------------------- resume
def test_sweep_with_store_persists_then_resumes(tmp_path):
    spec = tiny_spec()
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        with ResultStore(tmp_path / "store.jsonl") as store:
            first = session.sweep(spec, store=store, use_cache=False)
        assert all(result.source == "simulated" for result in first)
        # re-running against the store simulates nothing, whichever
        # executor resumes it (the serial executor wrote it)
        for backend in ("serial", PoolExecutor(jobs=2)):
            with ResultStore(tmp_path / "store.jsonl") as store:
                second = session.sweep(spec, store=store,
                                       use_cache=False, backend=backend)
            assert all(result.source == "store" for result in second)
            assert [r.stats for r in second] == [r.stats for r in first]


def test_resume_skips_exactly_the_stored_keys(tmp_path):
    spec = tiny_spec()
    configs = spec.expand()
    prestored = {config.key() for config in configs[::2]}
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        with ResultStore(tmp_path / "store.jsonl") as store:
            for config in configs[::2]:
                store.add(session.run(config, use_cache=False))
            store.bind(spec.sweep_id())
        with ResultStore(tmp_path / "store.jsonl") as store:
            results = session.sweep(spec, store=store, use_cache=False)
        served = {r.key for r in results if r.source == "store"}
        simulated = {r.key for r in results if r.source == "simulated"}
        assert served == prestored
        assert simulated == {c.key() for c in configs} - prestored
        # afterwards the store holds the complete sweep
        assert len(ResultStore(tmp_path / "store.jsonl")) == len(configs)


def test_store_bound_to_wrong_spec_raises(tmp_path):
    spec = tiny_spec()
    other = tiny_spec(iq_sizes=(16, 32))
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        store = ResultStore(tmp_path / "store.jsonl",
                            sweep_id=spec.sweep_id())
        with pytest.raises(ValueError, match="belongs to sweep"):
            session.sweep(other, store=store)
        store.close()


def test_cache_hits_are_backfilled_into_the_store(tmp_path):
    """Points the result cache already holds still land in the store,
    so the store ends complete and mergeable."""
    spec = tiny_spec(workloads=("compute_int",))
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        session.sweep(spec)  # populate the result cache
        with ResultStore(tmp_path / "store.jsonl") as store:
            results = session.sweep(spec, store=store)
        assert all(result.cached for result in results)
        assert len(ResultStore(tmp_path / "store.jsonl")) == len(spec)


# ------------------------------------------- sharded == serial, exactly
def test_merged_shards_match_serial_sweep_bit_for_bit(tmp_path):
    spec = tiny_spec()
    count = 3
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        serial = {r.key: r.stats
                  for r in session.sweep(spec, use_cache=False)}
    shard_paths = []
    for index in range(count):
        path = tmp_path / f"shard{index}.jsonl"
        shard_paths.append(path)
        # independent session per shard, as separate CI jobs would be
        with Session(cache_dir=str(tmp_path / f"c{index}")) as session, \
                ResultStore(path) as store:
            session.sweep(spec, store=store, shard=(index, count),
                          use_cache=False)
    merged = merge_stores(tmp_path / "merged.jsonl", shard_paths)
    assert sorted(merged.keys()) == sorted(serial)
    for key, stats in serial.items():
        assert merged.get(key).stats == stats  # bit-for-bit
    merged.close()


def test_empty_shard_still_materialises_its_store(tmp_path):
    """A shard that gets no points must leave a mergeable artifact."""
    spec = tiny_spec(workloads=("compute_int",), iq_sizes=(16,))
    count = len(spec.expand()) + 1  # more shards than points
    paths = []
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        for index in range(count):
            path = tmp_path / f"shard{index}.jsonl"
            paths.append(path)
            with ResultStore(path) as store:
                session.sweep(spec, store=store, shard=(index, count),
                              use_cache=False)
    assert all(path.is_file() for path in paths)
    merged = merge_stores(tmp_path / "merged.jsonl", paths)
    assert sorted(merged.keys()) == \
        sorted(config.key() for config in spec.expand())
    merged.close()


def test_sweep_shard_runs_only_that_partition(tmp_path):
    spec = tiny_spec()
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        results = session.sweep(spec, shard=(1, 3), use_cache=False)
    expected = [config.key() for config in spec.shard(1, 3)]
    assert [result.key for result in results] == expected


# ------------------------------------------------------ backend factory
def test_backend_for_jobs_selects_policy():
    # --jobs alone picks in-process (1) or the process pool (else)
    assert PoolExecutor(jobs=1).name == "serial"
    pool = PoolExecutor(jobs=4)
    assert pool.jobs == 4 and pool.name == "process-pool"
    per_cpu = PoolExecutor(jobs=0)
    assert per_cpu.jobs is None and per_cpu.name == "process-pool"
    assert PoolExecutor(jobs=None).name == "process-pool"
