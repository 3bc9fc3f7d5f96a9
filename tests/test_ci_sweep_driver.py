"""End-to-end test of scripts/ci_sweep.py — the exact shard/merge/
verify/check-resume sequence the CI workflow runs (merging with
``repro sweep --merge``), on a tiny spec."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DRIVER = REPO_ROOT / "scripts" / "ci_sweep.py"

SPEC = {
    "workloads": ["compute_int", "stream_triad"],
    "axes": {"core.iq_size": [16, 32]},
    "warmup": 150, "measure": 120,
}


def run_driver(args, tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("PYTHONPATH", None)  # the driver sets up sys.path itself
    return subprocess.run(
        [sys.executable, str(DRIVER), *args], cwd=str(REPO_ROOT),
        env=env, capture_output=True, text=True)


def merge(spec_path, stores, merged, tmp_path):
    """``repro sweep SPEC --merge STORES --store MERGED``, as CI runs it."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", str(spec_path),
         "--merge", *stores, "--store", str(merged), "--json"],
        cwd=str(REPO_ROOT), env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_ci_sweep_shard_merge_verify_resume(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    stores = []
    for index in range(2):
        store = tmp_path / f"shard{index}.jsonl"
        stores.append(str(store))
        proc = run_driver(["run", "--spec", str(spec_path),
                           "--shard", f"{index}/2", "--store", str(store)],
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "points" in proc.stdout

    merged = tmp_path / "merged.jsonl"
    assert merge(spec_path, stores, merged, tmp_path)["points"] == 4

    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(merged)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout

    proc = run_driver(["check-resume", "--spec", str(spec_path),
                       "--store", str(merged)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 simulated" in proc.stdout


def test_ci_sweep_verify_detects_missing_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    store = tmp_path / "partial.jsonl"
    # only one of two shards ran: verify must fail
    proc = run_driver(["run", "--spec", str(spec_path), "--shard", "0/2",
                       "--store", str(store)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(store)], tmp_path)
    assert proc.returncode == 1
    assert "MISSING" in proc.stdout


def test_ci_sweep_coordinate_matches_shard_union(tmp_path):
    """The CI sweep-merge leg: one pooled ``repro sweep`` run == the
    k-invocation shard union, bit for bit."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    stores = []
    for index in range(2):
        store = tmp_path / f"shard{index}.jsonl"
        stores.append(str(store))
        proc = run_driver(["run", "--spec", str(spec_path),
                           "--shard", f"{index}/2", "--store", str(store)],
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
    merged = tmp_path / "merged.jsonl"
    merge(spec_path, stores, merged, tmp_path)

    pooled = tmp_path / "pooled.jsonl"
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "isolated")  # no reuse
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", str(spec_path),
         "--jobs", "2", "--store", str(pooled), "--progress"],
        cwd=str(REPO_ROOT), env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[4/4]" in proc.stderr

    proc = run_driver(["compare", str(merged), str(pooled)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout

    # and the pooled store verifies against a serial rerun too
    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(pooled)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ci_sweep_batched_equivalence(tmp_path):
    """The CI batched-equivalence leg: the same sweep pooled batched
    and unbatched lands bit-identical stores, both equal to a serial
    rerun."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    stores = {}
    for label, batch in (("batched", "8"), ("unbatched", "1")):
        store = tmp_path / f"{label}.jsonl"
        stores[label] = store
        proc = run_driver(["run", "--spec", str(spec_path),
                           "--jobs", "2",
                           "--batch-size", batch, "--store", str(store)],
                          tmp_path / label)  # fresh cache per leg
        assert proc.returncode == 0, proc.stdout + proc.stderr

    proc = run_driver(["compare", str(stores["batched"]),
                       str(stores["unbatched"])], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout

    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(stores["batched"])], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ci_sweep_run_legs_simulate_not_replay_the_cache(tmp_path):
    """Two ``run`` legs on one cache directory both simulate every
    point: a leg served from the other's cache writes would compare
    cache reads with the rows that wrote them."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    for label in ("first", "second"):
        proc = run_driver(["run", "--spec", str(spec_path), "--store",
                           str(tmp_path / f"{label}.jsonl")], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "4 points, 4 simulated" in proc.stdout


def test_ci_sweep_kill_one_needs_a_pool(tmp_path):
    """``run --kill-one`` kills a pool worker, so it refuses to run
    without a pool rather than pass having killed nothing."""
    proc = run_driver(["run", "--kill-one", "--jobs", "1",
                       "--store", str(tmp_path / "killed.jsonl")],
                      tmp_path)
    assert proc.returncode == 2
    assert "needs --jobs >= 2" in proc.stdout
    assert not (tmp_path / "killed.jsonl").exists()


def test_ci_sweep_compare_detects_divergence(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    left = tmp_path / "left.jsonl"
    proc = run_driver(["run", "--spec", str(spec_path),
                       "--store", str(left)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # drop one point from the right-hand store
    lines = left.read_text().strip().splitlines()
    right = tmp_path / "right.jsonl"
    right.write_text("\n".join(lines[:-1]) + "\n")
    proc = run_driver(["compare", str(left), str(right)], tmp_path)
    assert proc.returncode == 1
    assert "MISSING" in proc.stdout


def test_ci_sweep_inspect_check_gate(tmp_path):
    """The anomaly-injection gate passes and writes its JSON report."""
    spec_path = tmp_path / "spec.json"
    # the gate needs >= 2 workloads with >= 6 points each to host the
    # conservation break and the baselined outlier
    spec_path.write_text(json.dumps({
        "workloads": ["compute_int", "stream_triad"],
        "axes": {"core.iq_size": [16, 32, 48, 64, 80, 96]},
        "warmup": 150, "measure": 120,
    }))
    report = tmp_path / "report.json"
    store = tmp_path / "inspected.jsonl"
    proc = run_driver(["inspect-check", "--spec", str(spec_path),
                       "--store", str(store), "--report", str(report)],
                      tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "inspect-check OK" in proc.stdout
    assert "FAILED" not in proc.stdout

    payload = json.loads(report.read_text())
    assert payload["points"] == 12
    assert payload["failures"] == []
    assert sorted(payload["injected"].values()) \
        == ["invariant", "outlier"]
    assert sorted(a["check"] for a in payload["flagged"]) \
        == ["invariant", "outlier"]
    assert sorted(payload["resimulated"]) \
        == sorted(payload["injected"])
    # the kept store ends healed: no standing quarantine
    assert '"record": "annotation"' in store.read_text()


def test_ci_sweep_run_reports_pool_workers_peak_rss(tmp_path):
    """A pooled ``run`` logs its workers' peak RSS (reaped children);
    an inline run has no workers to report."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    logged = {}
    for jobs in ("1", "2"):
        proc = run_driver(["run", "--spec", str(spec_path), "--jobs", jobs,
                           "--store", str(tmp_path / f"j{jobs}.jsonl")],
                          tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        logged[jobs] = re.search(r"pool workers' peak RSS (\d+\.\d) MB",
                                 proc.stdout)
    assert logged["1"] is None
    assert logged["2"] is not None
    if "fork" in multiprocessing.get_all_start_methods():
        assert float(logged["2"].group(1)) > 0.0
