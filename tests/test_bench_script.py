"""The ``scripts/bench.py`` gates read the committed reference.

``--output`` only says where the fresh numbers go: a probe written to
a scratch file must still be gated against the committed
``BENCH_pipeline.json``, never against the (empty) scratch path.  The
measurements are stubbed, so these tests time nothing.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_script", REPO_ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_gates_against_committed_reference(tmp_path, monkeypatch):
    bench = _load_bench()
    committed = bench.load_reference(bench.COMMITTED)
    assert committed["headline_speedup"] > 1.0

    def slow_run_bench(warmup, measure, repeats, names):
        # one simulated instruction per second on both engines: far
        # below every committed speedup
        row = {"insts_per_sec": 1.0, "kernel": {"insts_per_sec": 1.0},
               "committed": measure, "cycles": measure, "ipc": 1.0}
        return {"configs": {name: dict(row)
                            for name in names or committed["configs"]}}

    monkeypatch.setattr(bench.harness, "run_bench", slow_run_bench)
    output = tmp_path / "probe.json"
    assert bench.main(["--smoke", "--check", "--output", str(output)]) == 1
    assert output.exists()  # the fresh numbers still land in --output


def test_sweep_check_gates_against_committed_reference(tmp_path,
                                                       monkeypatch):
    bench = _load_bench()
    committed = bench.load_reference(bench.COMMITTED)
    ref_speedup = committed["sweep_points_per_sec"]["speedup"]
    # below the committed ratio's tolerance band; the absolute floor is
    # lowered so that only the committed reference can fail the gate
    speedup = ref_speedup * (1.0 - bench.PER_CONFIG_TOLERANCE) * 0.9
    monkeypatch.setattr(bench, "SWEEP_SPEEDUP_FLOOR", 0.5)

    def fake_time_sweep(spec, jobs, batch_size, repeats):
        return 10, (1.0 if batch_size == 1 else 1.0 / speedup)

    monkeypatch.setattr(bench, "_time_sweep", fake_time_sweep)
    output = tmp_path / "probe.json"
    args = ["--sweep", "--check", "--jobs", "1", "--output", str(output)]
    assert bench.main(args) == 1


def test_smoke_check_leaves_committed_reference_alone(tmp_path,
                                                      monkeypatch):
    bench = _load_bench()
    committed = tmp_path / "BENCH_pipeline.json"
    committed.write_bytes(bench.COMMITTED.read_bytes())
    before = committed.read_bytes()
    monkeypatch.setattr(bench, "COMMITTED", committed)
    reference = bench.load_reference(committed)

    def fast_run_bench(warmup, measure, repeats, names):
        # far above every committed speedup: the gate passes
        row = {"insts_per_sec": 1e12, "kernel": {"insts_per_sec": 1e12},
               "committed": measure, "cycles": measure, "ipc": 1.0}
        return {"configs": {name: dict(row)
                            for name in names or reference["configs"]}}

    monkeypatch.setattr(bench.harness, "run_bench", fast_run_bench)
    assert bench.main(["--smoke", "--check"]) == 0
    # a gate run without --output writes nothing, least of all the
    # committed full-run reference
    assert committed.read_bytes() == before
