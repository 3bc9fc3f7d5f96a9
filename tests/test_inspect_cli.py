"""The observability surface end to end: ``sweep --inspect``, the
``watch`` command and non-TTY progress rendering."""

import io
import json

from repro.api import Annotation, ResultStore
from repro.api.exec import ExecEvent
from repro.cli import _ProgressReporter, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


SPEC_PAYLOAD = {
    "workloads": ["compute_int"],
    "axes": {"core.iq_size": [16, 32]},
    "warmup": 150, "measure": 120,
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    return path


def event(kind, key="k0", workload="compute_int", index=0, **kwargs):
    return ExecEvent(kind=kind, key=key, workload=workload,
                     index=index, **kwargs)


# --------------------------------------------------- progress reporter
def test_progress_degrades_to_plain_lines_off_tty():
    stream = io.StringIO()  # no isatty -> non-TTY path
    reporter = _ProgressReporter(stream=stream, clock=lambda: 0.0)
    reporter(event("submitted"))
    reporter(event("started"))
    reporter(event("finished", wall_time_s=0.5))
    reporter.close()
    text = stream.getvalue()
    assert "\r" not in text  # no carriage-return spam in CI logs
    # only the terminal event makes a line, with the running counter
    lines = [line for line in text.splitlines() if line]
    assert lines == ["[1/1] finished compute_int"]


def test_progress_plain_lines_carry_counts_and_anomalies():
    stream = io.StringIO()
    reporter = _ProgressReporter(stream=stream, clock=lambda: 0.0)
    for index in range(2):
        reporter(event("submitted", key=f"k{index}", index=index))
    reporter(event("retried", error="boom"))
    reporter(event("finished"))
    reporter(event("anomaly", error="invariant: committed=207"))
    reporter(event("failed", key="k1", index=1, error="dead"))
    lines = [line for line in stream.getvalue().splitlines() if line]
    assert lines[0].startswith("[1/2] finished compute_int "
                               "(retried: 1)")
    assert "(anomalies: 1) [invariant: committed=207]" in lines[1]
    assert lines[2].startswith("[2/2] failed compute_int (failed: 1)")


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


def test_progress_renders_live_line_and_shard_throughput_on_tty():
    clock_value = [0.0]
    stream = _TtyStream()
    reporter = _ProgressReporter(stream=stream,
                                 clock=lambda: clock_value[0])
    for index in range(2):
        reporter(event("submitted", key=f"k{index}", index=index))
    reporter(event("started"))
    clock_value[0] = 2.0
    reporter(event("finished"))
    reporter(event("anomaly", error="outlier: ipc=2 vs median 1"))
    reporter.close()
    text = stream.getvalue()
    assert "\r" in text  # live single-line refresh
    assert "ETA" in text  # 1 of 2 done, rate known -> projected finish
    assert "anomaly: outlier: ipc=2 vs median 1" in text


# ------------------------------------------------------ sweep --inspect
def test_sweep_inspect_reports_clean_run(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--inspect"])
    assert code == 0
    assert "inspector: 2 result(s) validated, no anomalies" in text


def test_sweep_inspect_json_carries_the_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--inspect", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["inspector"]["observed"] == 2
    assert payload["inspector"]["anomalies"] == []


def test_quarantined_point_reruns_via_resume(tmp_path, monkeypatch):
    """An annotation in the store drives `sweep --resume` re-runs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store_path = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(spec), "--no-cache",
                    "--store", str(store_path)])[0] == 0
    with ResultStore(store_path) as store:
        suspect = store.keys()[0]
        store.annotate(Annotation(key=suspect, check="outlier",
                                  detail="ipc drift",
                                  workload="compute_int"))
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--resume",
                          "--store", str(store_path), "--inspect",
                          "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["simulated"] == 1  # exactly the quarantined point
    assert payload["from_store"] == 1
    # the re-run landed clean: quarantine lifted, store healed
    assert payload["inspector"]["quarantined"] == []
    with ResultStore(store_path) as store:
        assert store.quarantined_keys() == []
    # watch shows the lifted quarantine as history, not state
    code, text = run_cli(["watch", str(store_path)])
    assert code == 0
    assert " healed " in text
    assert "point(s) quarantined" not in text


# --------------------------------------------------------------- watch
def test_watch_renders_store_and_annotations(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store_path = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(spec), "--no-cache",
                    "--store", str(store_path)])[0] == 0
    code, text = run_cli(["watch", str(store_path)])
    assert code == 0
    assert "compute_int" in text
    assert "no anomaly annotations" in text

    with ResultStore(store_path) as store:
        store.annotate(Annotation(key=store.keys()[0], check="outlier",
                                  detail="ipc drift",
                                  workload="compute_int"))
    code, text = run_cli(["watch", str(store_path)])
    assert code == 0
    assert "1 anomaly annotation(s)" in text
    assert "quarantined" in text
    assert "a resumed sweep re-runs exactly them" in text


def test_watch_json_snapshot(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store_path = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(write_spec(tmp_path)), "--no-cache",
                    "--store", str(store_path)])[0] == 0
    code, text = run_cli(["watch", str(store_path), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    assert payload["quarantined"] == []
    assert payload["annotations"] == []
    assert payload["summary"]["workloads"]["compute_int"]["points"] == 2


def test_watch_follow_stops_at_point_target(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store_path = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(write_spec(tmp_path)), "--no-cache",
                    "--store", str(store_path)])[0] == 0
    code, text = run_cli(["watch", str(store_path), "--follow",
                          "--points", "2", "--interval", "0.01"])
    assert code == 0
    assert "[2 points]" in text  # the poll line
    assert "compute_int" in text  # the final rendered summary


def test_watch_missing_store_errors(tmp_path):
    code, text = run_cli(["watch", str(tmp_path / "absent.jsonl")])
    assert code == 2
    assert "does not exist" in text
