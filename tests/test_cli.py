"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ResultStore
from repro.cli import build_parser, main
from repro.harness.config import SimConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_command():
    code, text = run_cli(["list"])
    assert code == 0
    assert "indirect_fig2" in text
    assert "mlp_sensitive" in text
    assert "milc" in text


def test_run_command_baseline():
    code, text = run_cli(["run", "compute_int", "--warmup", "200",
                          "--measure", "200", "--no-cache"])
    assert code == 0
    assert "CPI" in text
    assert "compute_int" in text


def test_run_command_with_ltp_and_overrides():
    code, text = run_cli(["run", "sparse_gather", "--core", "small",
                          "--ltp", "limit-nrnu", "--iq", "16",
                          "--warmup", "400", "--measure", "300",
                          "--no-cache"])
    assert code == 0
    assert "instructions parked" in text


def test_run_command_alias():
    code, text = run_cli(["run", "milc", "--warmup", "200",
                          "--measure", "200", "--no-cache"])
    assert code == 0
    assert "milc" in text


def test_classify_command():
    code, text = run_cli(["classify", "indirect_fig2", "--insts", "1500"])
    assert code == 0
    assert "U+R" in text
    assert "NU+NR" in text


def test_experiment_command_table1():
    code, text = run_cli(["experiment", "table1"])
    assert code == 0
    assert "3.4 GHz" in text


def test_experiment_command_fig2():
    code, text = run_cli(["experiment", "fig2"])
    assert code == 0
    assert "Figure 2" in text


def test_run_json_emits_simresult_payload():
    code, text = run_cli(["run", "compute_int", "--warmup", "200",
                          "--measure", "200", "--no-cache", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["stats"]["committed"] == 200
    assert payload["source"] == "simulated"
    assert payload["cached"] is False
    # the embedded config round-trips to the same cache key
    assert SimConfig.from_dict(payload["config"]).key() == payload["key"]


def test_experiment_json_emits_result_document():
    code, text = run_cli(["experiment", "table1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["experiment"] == "table1"
    assert "3.4 GHz" in payload["result"]["baseline"]


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


# ----------------------------------------------------- discoverability
def test_experiment_list_names_and_descriptions():
    code, text = run_cli(["experiment", "--list"])
    assert code == 0
    for name in ("fig6", "headline", "policies", "table1"):
        assert name in text
    # one-line descriptions ride along
    assert "limit study" in text


def test_experiment_list_json():
    code, text = run_cli(["experiment", "--list", "--json"])
    assert code == 0
    payload = json.loads(text)
    names = [entry["name"] for entry in payload["experiments"]]
    assert "fig6" in names and "policies" in names
    assert all(entry["description"] for entry in payload["experiments"])


def test_experiment_without_name_or_list_errors():
    code, text = run_cli(["experiment"])
    assert code == 2
    assert "--list" in text


def test_sweep_list_presets():
    code, text = run_cli(["sweep", "--list-presets"])
    assert code == 0
    assert "ltp-queues" in text
    assert "policy-compare" in text
    assert "allocation policy" in text


def test_sweep_list_presets_json():
    code, text = run_cli(["sweep", "--list-presets", "--json"])
    assert code == 0
    payload = json.loads(text)
    names = [entry["name"] for entry in payload["presets"]]
    assert names == sorted(names)
    assert "policy-compare" in names
    assert all(entry["description"] for entry in payload["presets"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_cli(["run", "not_a_workload", "--no-cache"])


# -------------------------------------------------------------- sweep
SPEC_PAYLOAD = {
    "workloads": ["compute_int"],
    "axes": {"core.iq_size": [16, 32]},
    "warmup": 150, "measure": 120,
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    return path


def test_sweep_command_runs_spec_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)), "--json",
                          "--no-cache"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    assert payload["simulated"] == 2
    assert payload["shard"] is None
    assert payload["summary"]["workloads"]["compute_int"]["points"] == 2
    assert len(payload["results"]) == 2
    assert "inspector" not in payload  # no --inspect, no QA section


def test_sweep_command_shard_store_resume_merge(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    shard_args = []
    for index in range(2):
        store = tmp_path / f"shard{index}.jsonl"
        code, text = run_cli(["sweep", str(spec), "--no-cache",
                              "--shard", f"{index}/2",
                              "--store", str(store), "--json"])
        assert code == 0
        shard_args.append(str(store))
    merged = tmp_path / "merged.jsonl"
    code, text = run_cli(["sweep", "--merge", *shard_args,
                          "--store", str(merged), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    # resuming from the merged store simulates nothing
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--resume",
                          "--store", str(merged), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["simulated"] == 0
    assert payload["from_store"] == 2


def test_merge_and_watch_count_stored_rows_as_from_store(tmp_path,
                                                          monkeypatch):
    """Rows read back from stores were not simulated by the command
    that reads them, though each keeps the ``source`` it was stored
    with."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    shards = [str(tmp_path / f"shard{index}.jsonl") for index in range(2)]
    for index, store in enumerate(shards):
        assert run_cli(["sweep", str(spec), "--no-cache", "--shard",
                        f"{index}/2", "--store", store])[0] == 0
    merged = tmp_path / "merged.jsonl"
    code, text = run_cli(["sweep", "--merge", *shards,
                          "--store", str(merged)])
    assert code == 0
    assert "2 points (0 simulated, 2 from cache/store)" in text
    with ResultStore(merged) as store:
        assert [r.source for r in store.results()] == ["simulated"] * 2
    code, text = run_cli(["watch", str(merged)])
    assert code == 0
    assert "2 points (0 simulated, 2 from cache/store)" in text
    code, text = run_cli(["watch", str(merged), "--json"])
    assert json.loads(text)["summary"]["simulated"] == 0


def test_sweep_merge_validates_named_spec(tmp_path, monkeypatch):
    """SPEC alongside --merge binds the merged store to that sweep."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store = tmp_path / "shard.jsonl"
    assert run_cli(["sweep", str(spec), "--no-cache", "--shard", "0/2",
                    "--store", str(store)])[0] == 0
    # matching spec: merge succeeds
    assert run_cli(["sweep", str(spec), "--merge", str(store),
                    "--store", str(tmp_path / "ok.jsonl")])[0] == 0
    # different spec: the merge is refused before DEST is written
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SPEC_PAYLOAD, "measure": 130}))
    code, text = run_cli(["sweep", str(other), "--merge", str(store),
                          "--store", str(tmp_path / "bad.jsonl")])
    assert code == 2
    assert text.startswith(f"store {store} belongs to sweep ")
    assert text.count("\n") == 1
    assert not (tmp_path / "bad.jsonl").exists()
    # budget flags name the sweep a SPEC means, as in a run
    code, _ = run_cli(["sweep", str(spec), "--measure", "130", "--merge",
                       str(store), "--store", str(tmp_path / "bad.jsonl")])
    assert code == 2
    assert not (tmp_path / "bad.jsonl").exists()
    assert run_cli(["sweep", str(other), "--measure", "120", "--merge",
                    str(store), "--store",
                    str(tmp_path / "ok2.jsonl")])[0] == 0


def test_an_interrupted_sweep_names_its_store_and_resumes(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store = tmp_path / "store.jsonl"
    add = ResultStore.add

    def add_then_interrupt(self, result):
        add(self, result)
        raise KeyboardInterrupt
    monkeypatch.setattr(ResultStore, "add", add_then_interrupt)
    try:
        code, text = run_cli(["sweep", str(spec), "--no-cache",
                              "--store", str(store)])
    except KeyboardInterrupt:  # would end the whole test session
        pytest.fail("the interrupt escaped repro sweep")
    assert code == 130
    assert text == (f"sweep interrupted: store {store} holds 1 row(s); "
                    f"rerun with --resume to finish it\n")
    monkeypatch.setattr(ResultStore, "add", add)
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--resume",
                          "--store", str(store), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert (payload["simulated"], payload["from_store"]) == (1, 1)


def test_sweep_command_table_output(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache"])
    assert code == 0
    assert "2 points (2 simulated" in text
    assert "compute_int" in text
    assert "inspector:" not in text


def test_sweep_command_refuses_existing_store_without_resume(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(spec), "--store", str(store),
                    "--no-cache"])[0] == 0
    code, text = run_cli(["sweep", str(spec), "--store", str(store),
                          "--no-cache"])
    assert code == 2
    assert "--resume" in text


def test_sweep_command_argument_errors(tmp_path, capsys):
    code, text = run_cli(["sweep"])
    assert code == 2 and "SPEC" in text
    code, text = run_cli(["sweep", "--merge", "x.jsonl"])
    assert code == 2 and "--store" in text
    code, text = run_cli(["sweep", str(tmp_path / "spec.json"),
                          "--resume"])
    assert code == 2 and "--store" in text
    code, text = run_cli(["sweep", "no-such-preset"])
    assert code == 2 and "neither a JSON file nor" in text
    with pytest.raises(SystemExit):  # argparse rejects bad shards
        run_cli(["sweep", "x.json", "--shard", "4/4"])
    # numeric flags are validated at parse time: exit 2, flag named
    for argv, flag in [
            (["sweep", "x.json", "--batch-size", "0"], "--batch-size"),
            (["sweep", "x.json", "--jobs", "-3"], "--jobs"),
            (["sweep", "x.json", "--max-retries", "-1"], "--max-retries"),
            (["experiment", "fig7", "--jobs", "-3"], "--jobs")]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    ("{not json", "Expecting property name"),
    (json.dumps({"workloads": "compute_int"}), "'workloads'"),
    (json.dumps({"workloads": ["compute_int"], "axes": [1]}), "'axes'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"core.iq_size": "ab"}}), "'core.iq_size'"),
    (json.dumps({"workloads": ["compute_int"], "measure": 100.9}),
     "'measure'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"policy": ["teleport"]}}), "'teleport'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"engine": ["warp"]}}), "'warp'"),
    (json.dumps({"workloads": ["compute_int"],
                 "core": {"iq_size": "32"}}), "'core.iq_size'"),
    (json.dumps({"workloads": ["compute_int"],
                 "ltp": {"entries": "x"}}), "'ltp.entries'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"core.iq_size": ["x"]}}), "got 'x'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"core.mem": [{"mshrs": 0}]}}), "'core.mem.mshrs'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"core.iq_size": [-1]}}), "got -1"),
    (json.dumps({"workloads": ["compute_int"], "warmup": -5}),
     "'warmup'"),
    (json.dumps({"workloads": ["compute_int"],
                 "core": {"mem": {"l1d_size": 1000}}}),
     "'core.mem.l1d_size'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"ltp.uit_ways": [0]}}), "'ltp.uit_ways'"),
    (json.dumps({"workloads": ["nope"]}), "'nope'"),
    (json.dumps({"workloads": ["compute_int"],
                 "core": {"iq_size": True}}), "got True"),
    (json.dumps({"workloads": ["compute_int"],
                 "core": {"rob_size": 1.5}}), "'core.rob_size'"),
    (json.dumps({"workloads": ["compute_int"],
                 "core": {"latencies": 5}}), "'core.latencies'"),
    (json.dumps({"workloads": ["compute_int"],
                 "axes": {"ltp.enabled": ["yes"]}}), "'ltp.enabled'"),
], ids=["bad-json", "workloads-string", "axes-list", "axis-string",
        "budget-float", "policy-axis-unknown", "engine-axis-unknown",
        "core-field-string", "ltp-field-string", "axis-value-string",
        "mem-axis-bad", "axis-value-negative", "budget-negative",
        "cache-geometry", "uit-ways-zero", "workload-unknown",
        "int-field-bool", "int-field-float", "latencies-int",
        "bool-axis-string"])
@pytest.mark.parametrize("merge", [False, True], ids=["run", "merge"])
def test_sweep_bad_spec_file_exits_2(tmp_path, content, message, merge):
    """A spec file that does not parse into a sweep is a usage error:
    its message and exit status 2, no traceback, no store written."""
    spec = tmp_path / "spec.json"
    spec.write_text(content)
    store = tmp_path / "out.jsonl"
    argv = ["sweep", str(spec), "--store", str(store)]
    if merge:
        argv += ["--merge", str(tmp_path / "shard.jsonl")]
    code, text = run_cli(argv)
    assert code == 2
    assert message in text and len(text.splitlines()) == 1
    assert not store.exists()


def test_sweep_bad_budget_flag_exits_2(tmp_path):
    """A budget flag a preset cannot take is the same usage error as a
    bad spec file: the spec is validated after the flags apply."""
    store = tmp_path / "out.jsonl"
    code, text = run_cli(["sweep", "ltp-queues", "--warmup", "-5",
                          "--store", str(store)])
    assert code == 2
    assert "'warmup'" in text and len(text.splitlines()) == 1
    assert not store.exists()


def test_sweep_executor_flag_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store = tmp_path / "mock.jsonl"
    # --jobs alone picks where a sweep runs: there is no --executor
    # flag, so the test double can never be chosen and its made-up
    # rows never land in a store a real run could resume
    for name in ("mock", "serial", "process-pool", "remote"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["sweep", "ltp-queues", "--executor", name,
                     "--warmup", "100", "--measure", "50",
                     "--store", str(store)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --executor" in \
            capsys.readouterr().err
    assert not store.exists()
    # no --workers flag, no worker command
    for argv in (["sweep", "ltp-queues", "--workers", "a:1",
                  "--store", str(store)],
                 ["worker", "--listen", "127.0.0.1:0"]):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
    assert not store.exists()


def test_sweep_preset_resolves(tmp_path, monkeypatch):
    """Preset names expand without a spec file (shard keeps it tiny)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.harness.experiments import sweep_preset
    spec = sweep_preset("ltp-queues")
    assert len(spec) == 90  # 15 workloads x 3 IQ sizes x LTP on/off
    assert len(spec.workloads) == 15


def test_sweep_jobs_store_matches_serial_with_event_log(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    serial_store = tmp_path / "serial.jsonl"
    code, _ = run_cli(["sweep", str(spec), "--no-cache",
                       "--store", str(serial_store)])
    assert code == 0
    pooled_store = tmp_path / "pooled.jsonl"
    code, text = run_cli(["sweep", str(spec), "--no-cache",
                          "--jobs", "2",
                          "--store", str(pooled_store), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    # the lifecycle-event log rides the JSON document
    kinds = [event["kind"] for event in payload["events"]]
    assert kinds.count("submitted") == 2
    assert kinds.count("finished") == 2
    from repro.api import ResultStore
    with ResultStore(serial_store) as a, ResultStore(pooled_store) as b:
        left, right = a.load(), b.load()
        assert set(left) == set(right)
        assert all(left[key].stats == right[key].stats for key in left)


def test_sweep_progress_renders_line_updates(tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--progress"])
    assert code == 0
    progress = capsys.readouterr().err
    assert "[2/2]" in progress
    assert "finished" in progress


def test_sweep_budget_overrides_apply(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--warmup", "100",
                          "--measure", "90", "--json"])
    assert code == 0
    payload = json.loads(text)
    configs = [row["config"] for row in payload["results"]]
    assert all(c["warmup"] == 100 and c["measure"] == 90
               for c in configs)


@pytest.mark.parametrize("command", ["list", "watch"])
def test_a_closed_stdout_pipe_exits_quietly(command, tmp_path, monkeypatch):
    """``repro list | head -1``: a reader that leaves before the output
    is written ends the command with status 1 and nothing on stderr."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["list"]
    if command == "watch":
        store = tmp_path / "store.jsonl"
        assert run_cli(["sweep", str(write_spec(tmp_path)), "--no-cache",
                        "--store", str(store)])[0] == 0
        argv = ["watch", str(store)]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              cwd=str(REPO_ROOT), env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
