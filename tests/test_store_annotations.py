"""Tests for annotation rows in the result store: round-trips,
quarantine timelines, torn-write repair, old/new reader compatibility,
and merge semantics."""

import json

from repro.api import (Annotation, ResultStore, SimConfig, SimResult,
                       merge_stores)
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


def make_annotation(key, check="invariant", quarantine=True, **kwargs):
    return Annotation(key=key, check=check,
                      detail=kwargs.pop("detail", "broken accounting"),
                      quarantine=quarantine, **kwargs)


# -------------------------------------------------------- round-trips
def test_annotation_dict_roundtrip():
    annotation = Annotation(key="abc", check="outlier",
                            detail="ipc=2 vs median 1",
                            workload="compute_int", index=7,
                            quarantine=True,
                            values={"ipc": {"z": 50.0}})
    payload = annotation.to_dict()
    assert payload["record"] == "annotation"
    assert Annotation.from_dict(payload) == annotation


def test_annotation_dict_omits_unset_fields():
    payload = make_annotation("k").to_dict()
    assert "index" not in payload
    assert "values" not in payload
    rebuilt = Annotation.from_dict(payload)
    assert rebuilt.index is None
    assert rebuilt.values == {}


def test_annotations_roundtrip_through_reopen(tmp_path):
    path = tmp_path / "store.jsonl"
    result = make_result()
    noted = make_annotation("alarm:retry-rate", check="retry-rate",
                            quarantine=False, detail="4/6 retries")
    with ResultStore(path, sweep_id="s1") as store:
        store.append(result)
        store.annotate(make_annotation(result.key))
        store.annotate(noted)

    reopened = ResultStore(path)
    assert reopened.sweep_id == "s1"
    assert len(reopened) == 1  # annotations are not result rows
    assert {a.key for a in reopened.annotations()} \
        == {result.key, "alarm:retry-rate"}
    assert reopened.annotation(result.key).check == "invariant"
    assert reopened.quarantined(result.key)
    # a non-quarantine (operational) annotation never quarantines
    assert not reopened.quarantined("alarm:retry-rate")
    assert reopened.quarantined_keys() == [result.key]


# ------------------------------------------------- quarantine timeline
def test_later_result_row_lifts_quarantine(tmp_path):
    path = tmp_path / "store.jsonl"
    bad = make_result(cpi=9.0)
    with ResultStore(path) as store:
        store.append(bad)
        store.annotate(make_annotation(bad.key))
        assert store.quarantined(bad.key)
        # the idempotent add accepts a re-run for a quarantined key
        assert store.add(make_result(cpi=2.0)) is True
        assert not store.quarantined(bad.key)
        # ... and refuses it again once the key is clean
        assert store.add(make_result(cpi=2.0)) is False

    reopened = ResultStore(path)
    assert reopened.quarantined_keys() == []
    assert reopened.get(bad.key).stats["cpi"] == 2.0
    # the annotation row itself survives as the audit trail
    assert reopened.annotation(bad.key) is not None


def test_annotation_last_wins_per_key(tmp_path):
    path = tmp_path / "store.jsonl"
    result = make_result()
    with ResultStore(path) as store:
        store.append(result)
        store.annotate(make_annotation(result.key, check="invariant"))
        store.annotate(make_annotation(result.key, check="outlier",
                                       detail="ipc drift"))
    reopened = ResultStore(path)
    assert len(reopened.annotations()) == 1
    assert reopened.annotation(result.key).check == "outlier"


# ------------------------------------------------------ crash recovery
def test_torn_trailing_annotation_line_is_repaired(tmp_path):
    path = tmp_path / "store.jsonl"
    result = make_result()
    with ResultStore(path) as store:
        store.append(result)
    with open(path, "a") as handle:
        handle.write('{"record": "annotation", "key": "tor')  # crash

    reopened = ResultStore(path)
    assert reopened.skipped_rows == 1
    assert reopened.annotations() == []
    assert len(reopened) == 1
    # the next append starts on a fresh line; everything stays loadable
    reopened.annotate(make_annotation(result.key))
    reopened.close()
    final = ResultStore(path)
    assert final.quarantined_keys() == [result.key]
    assert final.get(result.key).stats == result.stats


def test_annotation_row_missing_fields_is_skipped(tmp_path):
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        store.append(make_result())
    with open(path, "a") as handle:
        handle.write(json.dumps({"record": "annotation"}) + "\n")
    reopened = ResultStore(path)
    assert reopened.skipped_rows == 1
    assert reopened.annotations() == []


# -------------------------------------------------------- compatibility
def test_result_rows_carry_no_record_tag(tmp_path):
    """Readers that predate annotations key on the absence of a
    ``record`` tag — result rows must never grow one."""
    path = tmp_path / "store.jsonl"
    with ResultStore(path, sweep_id="s1") as store:
        store.append(make_result())
        store.annotate(make_annotation("some-key"))
    rows = [json.loads(line)
            for line in path.read_text().splitlines() if line]
    assert [row.get("record") for row in rows] \
        == ["header", None, "annotation"]


def test_pre_annotation_store_still_parses(tmp_path):
    """A store written before the annotation row kind loads cleanly."""
    path = tmp_path / "store.jsonl"
    result = make_result()
    rows = [{"record": "header", "schema": 1, "sweep_id": "old"},
            result.to_dict()]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    store = ResultStore(path)
    assert store.sweep_id == "old"
    assert store.skipped_rows == 0
    assert store.annotations() == []
    assert store.get(result.key).stats == result.stats


# -------------------------------------------------------------- merge
def test_merge_carries_standing_quarantine(tmp_path):
    flagged = make_result("compute_int")
    clean = make_result("stream_triad")
    with ResultStore(tmp_path / "a.jsonl", sweep_id="s1") as left:
        left.append(flagged)
        left.annotate(make_annotation(flagged.key))
    with ResultStore(tmp_path / "b.jsonl", sweep_id="s1") as right:
        right.append(clean)

    with merge_stores(tmp_path / "merged.jsonl",
                      [tmp_path / "a.jsonl",
                       tmp_path / "b.jsonl"]) as merged:
        assert set(merged.keys()) == {flagged.key, clean.key}
        assert merged.quarantined_keys() == [flagged.key]
    reopened = ResultStore(tmp_path / "merged.jsonl")
    assert reopened.quarantined_keys() == [flagged.key]


def test_merge_drops_lifted_quarantine(tmp_path):
    result = make_result()
    with ResultStore(tmp_path / "a.jsonl", sweep_id="s1") as source:
        source.append(make_result(cpi=9.0))
        source.annotate(make_annotation(result.key))
        source.append(make_result(cpi=2.0))  # the healing re-run

    with merge_stores(tmp_path / "merged.jsonl",
                      [tmp_path / "a.jsonl"]) as merged:
        assert merged.quarantined_keys() == []
        # a lifted data-anomaly annotation is history, not state
        assert merged.annotations() == []
        assert merged.get(result.key).stats["cpi"] == 2.0


def test_merge_keeps_operational_annotations(tmp_path):
    with ResultStore(tmp_path / "a.jsonl", sweep_id="s1") as source:
        source.append(make_result())
        source.annotate(make_annotation(
            "alarm:retry-rate", check="retry-rate", quarantine=False,
            detail="4/6 attempts were retries (67%)"))
    with merge_stores(tmp_path / "merged.jsonl",
                      [tmp_path / "a.jsonl"]) as merged:
        assert [a.key for a in merged.annotations()] == ["alarm:retry-rate"]
        assert merged.quarantined_keys() == []
