"""Tests for the persistent JSONL result store: round-trips, dedupe,
sweep-id binding, torn-write tolerance, and merging."""

import json

import pytest

from repro.api import ResultStore, SimConfig, SimResult, merge_stores, summarize
from repro.core.params import baseline_params
from repro.ltp.config import no_ltp


def make_config(workload="compute_int", measure=100):
    return SimConfig(workload=workload, core=baseline_params(),
                     ltp=no_ltp(), warmup=50, measure=measure)


def make_result(workload="compute_int", measure=100, cpi=2.0):
    config = make_config(workload, measure)
    stats = {"cpi": cpi, "ipc": 1.0 / cpi, "cycles": int(cpi * measure),
             "committed": measure, "workload": workload}
    return SimResult(config=config, stats=stats, key=config.key())


# --------------------------------------------------------- round-trips
def test_store_roundtrips_results(tmp_path):
    path = tmp_path / "store.jsonl"
    first = make_result("compute_int")
    second = make_result("stream_triad")
    with ResultStore(path, sweep_id="abc123") as store:
        store.append(first)
        store.append(second)
        assert len(store) == 2

    reopened = ResultStore(path)
    assert reopened.sweep_id == "abc123"
    assert reopened.keys() == [first.key, second.key]
    loaded = reopened.get(first.key)
    assert loaded.stats == first.stats
    assert loaded.config == first.config
    assert loaded.key == first.key


def test_store_rows_are_simresult_payloads(tmp_path):
    """The file is plain JSONL of SimResult.to_dict rows + a header."""
    path = tmp_path / "store.jsonl"
    result = make_result()
    with ResultStore(path, sweep_id="s1") as store:
        store.append(result)
    lines = [json.loads(line)
             for line in path.read_text().splitlines() if line]
    assert lines[0]["record"] == "header"
    assert lines[0]["sweep_id"] == "s1"
    assert lines[1] == result.to_dict()


def test_store_dedupes_by_key_last_wins(tmp_path):
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        store.append(make_result(cpi=2.0))
        store.append(make_result(cpi=3.0))  # same config, same key
    reopened = ResultStore(path)
    assert len(reopened) == 1
    assert reopened.results()[0].stats["cpi"] == 3.0


def test_store_add_is_idempotent(tmp_path):
    path = tmp_path / "store.jsonl"
    result = make_result()
    with ResultStore(path) as store:
        assert store.add(result) is True
        assert store.add(result) is False
        assert store.extend([result, make_result("stream_triad")]) == 1
    # only header + two distinct rows on disk
    assert len(path.read_text().splitlines()) == 3


def test_store_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        store.append(make_result())
    with open(path, "a") as handle:
        handle.write('{"config": {"workload": "trunca')  # crash mid-write
    reopened = ResultStore(path)
    assert len(reopened) == 1
    assert reopened.skipped_rows == 1
    # appending after a torn line keeps the file loadable
    reopened.append(make_result("stream_triad"))
    reopened.close()
    assert len(ResultStore(path)) == 2


def test_store_skips_non_object_json_rows(tmp_path):
    """Valid JSON that isn't an object must be skipped, not crash."""
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        store.append(make_result())
    with open(path, "a") as handle:
        handle.write("null\n123\n[1, 2]\n")
    reopened = ResultStore(path)
    assert len(reopened) == 1
    assert reopened.skipped_rows == 3


def test_store_skips_undecodable_rows(tmp_path):
    """A row that is not UTF-8 is skipped and counted, not a crash."""
    path = tmp_path / "store.jsonl"
    with ResultStore(path, sweep_id="s1") as store:
        store.append(make_result("compute_int"))
    second = make_result("stream_triad")
    with open(path, "ab") as handle:
        handle.write(b"\xff\xfe\n")
        handle.write(json.dumps(second.to_dict()).encode() + b"\n")
    with ResultStore(path) as reopened:
        assert len(reopened) == 2
        assert reopened.skipped_rows == 1
        assert reopened.add(make_result("compute_int", measure=200))
    assert len(ResultStore(path)) == 3


def test_store_contains_and_missing_get(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    result = make_result()
    assert result.key not in store
    assert store.get(result.key) is None
    store.append(result)
    assert result.key in store
    store.close()


# ------------------------------------------------------ sweep identity
def test_store_bind_adopts_then_enforces_sweep_id(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    assert store.sweep_id is None
    store.bind("sweep-a")
    assert store.sweep_id == "sweep-a"
    store.bind("sweep-a")  # idempotent
    with pytest.raises(ValueError, match="belongs to sweep"):
        store.bind("sweep-b")


def test_store_constructor_rejects_mismatched_header(tmp_path):
    path = tmp_path / "store.jsonl"
    with ResultStore(path, sweep_id="sweep-a") as store:
        store.append(make_result())
    with pytest.raises(ValueError, match="belongs to sweep"):
        ResultStore(path, sweep_id="sweep-b")


# -------------------------------------------------------------- merging
def test_merge_stores_unions_disjoint_shards(tmp_path):
    a, b = make_result("compute_int"), make_result("stream_triad")
    with ResultStore(tmp_path / "a.jsonl", sweep_id="s") as store:
        store.append(a)
    with ResultStore(tmp_path / "b.jsonl", sweep_id="s") as store:
        store.append(b)
    merged = merge_stores(tmp_path / "m.jsonl",
                          [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert sorted(merged.keys()) == sorted([a.key, b.key])
    assert merged.sweep_id == "s"
    merged.close()


def test_merge_stores_dedupes_overlap(tmp_path):
    shared = make_result()
    for name in ("a", "b"):
        with ResultStore(tmp_path / f"{name}.jsonl") as store:
            store.append(shared)
    merged = merge_stores(tmp_path / "m.jsonl",
                          [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert len(merged) == 1
    merged.close()


def test_merge_stores_rejects_missing_sources(tmp_path):
    """A typo'd path or unmatched glob must not merge as empty."""
    with ResultStore(tmp_path / "a.jsonl") as store:
        store.append(make_result())
    with pytest.raises(FileNotFoundError, match="shard[*]"):
        merge_stores(tmp_path / "m.jsonl",
                     [tmp_path / "a.jsonl", tmp_path / "shard*.jsonl"])
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_stores_rejects_mixed_sweeps(tmp_path):
    with ResultStore(tmp_path / "a.jsonl", sweep_id="s1") as store:
        store.append(make_result())
    with ResultStore(tmp_path / "b.jsonl", sweep_id="s2") as store:
        store.append(make_result("stream_triad"))
    with pytest.raises(ValueError, match="belongs to sweep"):
        merge_stores(tmp_path / "m.jsonl",
                     [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])


# ------------------------------------------------------------ summarize
def test_summarize_groups_by_workload():
    results = [make_result("compute_int", measure=100, cpi=2.0),
               make_result("compute_int", measure=200, cpi=4.0),
               make_result("stream_triad", measure=100, cpi=1.0)]
    summary = summarize(results)
    assert summary["points"] == 3
    assert summary["simulated"] == 3
    ci = summary["workloads"]["compute_int"]
    assert ci["points"] == 2
    assert ci["mean_cpi"] == pytest.approx(3.0)
    assert summary["workloads"]["stream_triad"]["points"] == 1


def test_summarize_empty():
    summary = summarize([])
    assert summary == {"points": 0, "simulated": 0, "workloads": {}}
