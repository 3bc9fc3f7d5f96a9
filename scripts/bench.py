#!/usr/bin/env python
"""Measure simulator throughput and write ``BENCH_pipeline.json``.

Usage (from the repo root)::

    python scripts/bench.py                  # full run, writes BENCH_pipeline.json
    python scripts/bench.py --smoke          # tiny traces (CI sanity run)
    python scripts/bench.py --save-baseline  # snapshot benchmarks/perf/baseline_seed.json

The output document records simulated-instructions-per-second for each
configuration in ``benchmarks.perf.harness.BENCH_CONFIGS``, measured
A/B on both simulation engines (the reference object pipeline and the
columnar kernel), alongside the committed pre-optimisation seed
baseline, the speedups against it per engine, and the per-config
kernel-over-object ``engine_speedup``.  See README.md ("Performance
tracking") for how to read the file.

``--check`` turns the run into a regression gate (CI uses ``--smoke
--check``): the freshly measured headline speedup (the kernel engine
on ``milc_baseline``) over ``benchmarks/perf/baseline_seed.json`` is
compared against the speedup recorded in the committed
``BENCH_pipeline.json`` (never the file ``--output`` names) within
:data:`CHECK_TOLERANCE`, and every other config is held to its
committed per-engine speedup within :data:`PER_CONFIG_TOLERANCE`; the
exit code is nonzero if any gate fails.  A gate run writes its fresh
numbers only where ``--output`` says: without it, the committed
reference is left as it is.

``--sweep`` measures end-to-end sweep throughput (points/sec on the
``ltp-queues`` preset, kernel engine, pool executor) with trace-shared
batching on versus off, and records both rates plus their ratio under
``sweep_points_per_sec`` in the committed ``BENCH_pipeline.json``.
``--sweep --check`` gates instead of recording: the fresh
batched/unbatched ratio must stay within
:data:`PER_CONFIG_TOLERANCE` of the committed ratio *and* above the
absolute :data:`SWEEP_SPEEDUP_FLOOR`.  Both gates read the committed
reference (:data:`COMMITTED`), so ``--output`` only redirects where
the fresh numbers are written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import harness  # noqa: E402

#: the committed reference every ``--check`` gate compares against
COMMITTED = REPO_ROOT / "BENCH_pipeline.json"

#: --check fails when the headline speedup falls more than this far
#: below the committed BENCH_pipeline.json value.  Both speedups are
#: ratios against the committed seed baseline, which was recorded on a
#: different machine — the gate therefore also absorbs absolute
#: machine-speed differences between the recording host and the CI
#: runner, not just timing noise; widen via BENCH_CHECK_TOLERANCE if a
#: runner class proves systematically slower.
CHECK_TOLERANCE = float(os.environ.get("BENCH_CHECK_TOLERANCE", "0.15"))

#: per-config gate tolerance: every non-headline config (both the
#: object path and the kernel path) is held to its committed speedup
#: within this margin, so a kernel-engine gain can never mask an
#: object-path regression on any config.  Wider than the headline's —
#: the satellite configs run fewer instructions per measured second
#: and sit closer to timer noise.
PER_CONFIG_TOLERANCE = float(
    os.environ.get("BENCH_CONFIG_TOLERANCE", "0.20"))


def load_reference(path: Path) -> dict:
    """The committed document (read before overwriting), or empty."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def check_regression(document: dict, reference: dict) -> int:
    """Gate the headline and every per-config speedup; returns the
    process exit code.

    The headline gate keeps its historical semantics and tolerance
    (:data:`CHECK_TOLERANCE`); additionally, every config measured in
    both the fresh run and the committed reference is gated per engine
    path (``speedup_vs_baseline`` for the object pipeline,
    ``kernel_speedup_vs_baseline`` for the kernel) within
    :data:`PER_CONFIG_TOLERANCE`.  Reference maps a past document does
    not carry are skipped, so the gate tightens as references refresh.
    """
    failures = 0
    current = document.get("headline_speedup")
    ref_speedup = reference.get("headline_speedup")
    headline = document.get("headline", harness.HEADLINE)
    if ref_speedup is None or current is None:
        print(f"perf check skipped: no committed {headline} reference "
              f"speedup to compare against")
        return 0
    floor = ref_speedup * (1.0 - CHECK_TOLERANCE)
    verdict = "OK" if current >= floor else "REGRESSION"
    if current < floor:
        failures += 1
    regime = ""
    if bool(reference.get("smoke")) != bool(document.get("smoke")):
        regime = (" [note: budget regimes differ — reference "
                  f"smoke={bool(reference.get('smoke'))}, current "
                  f"smoke={bool(document.get('smoke'))}; part of the "
                  "tolerance absorbs that shift]")
    print(f"perf check {verdict}: {headline} speedup {current:.3f}x vs "
          f"committed {ref_speedup:.3f}x (floor {floor:.3f}x, "
          f"tolerance {CHECK_TOLERANCE:.0%}){regime}")

    for map_name, label in (("speedup_vs_baseline", "object"),
                            ("kernel_speedup_vs_baseline", "kernel")):
        current_map = document.get(map_name) or {}
        reference_map = reference.get(map_name) or {}
        for name in sorted(reference_map):
            ref_value = reference_map[name]
            value = current_map.get(name)
            if value is None or not ref_value:
                continue  # config not measured this run
            config_floor = ref_value * (1.0 - PER_CONFIG_TOLERANCE)
            if value >= config_floor:
                continue
            failures += 1
            print(f"perf check REGRESSION: {name} [{label}] speedup "
                  f"{value:.3f}x vs committed {ref_value:.3f}x "
                  f"(floor {config_floor:.3f}x, tolerance "
                  f"{PER_CONFIG_TOLERANCE:.0%})")
    if not failures:
        print("perf check OK: all per-config gates within tolerance")
    return 1 if failures else 0


# --sweep: end-to-end sweep throughput, batched vs unbatched ---------
#: the paper's headline sweep shape: queue sizes x LTP on/off across
#: every workload, 6 points per trace identity — exactly the work the
#: batched execution layer amortizes
SWEEP_PRESET = "ltp-queues"
SWEEP_WARMUP = 300
SWEEP_MEASURE = 300
#: best-of-N per leg: timing noise only ever slows a run, so more
#: repeats converge each leg to its true floor and stabilise the ratio
SWEEP_REPEATS = 4
#: --sweep --check also enforces this absolute batched/unbatched
#: ratio, independent of the committed reference
SWEEP_SPEEDUP_FLOOR = float(os.environ.get("BENCH_SWEEP_FLOOR", "1.5"))


def _time_sweep(spec, jobs: int, batch_size,
                repeats: int):
    """Best-of-N wall time for one executor leg (fresh caches, no
    result caching, so every repeat simulates every point)."""
    import tempfile
    import time as time_mod

    from repro.api import PoolExecutor, Session

    best = None
    points = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as scratch, \
                Session(cache_dir=scratch) as session:
            backend = PoolExecutor(jobs=jobs, batch_size=batch_size)
            start = time_mod.perf_counter()
            results = session.sweep(spec, use_cache=False,
                                    backend=backend)
            elapsed = time_mod.perf_counter() - start
        points = len(results)
        best = elapsed if best is None else min(best, elapsed)
    return points, best


def sweep_bench(args) -> int:
    """Measure (or gate) batched vs unbatched sweep throughput."""
    from repro.api.exec import default_jobs
    from repro.harness.experiments import sweep_preset

    jobs = args.jobs if args.jobs else default_jobs()
    spec = sweep_preset(SWEEP_PRESET, warmup=SWEEP_WARMUP,
                        measure=SWEEP_MEASURE)
    spec.engine = "kernel"

    points, unbatched_s = _time_sweep(spec, jobs, 1, SWEEP_REPEATS)
    unbatched = points / unbatched_s
    print(f"unbatched (batch_size=1): {unbatched_s:.2f}s "
          f"({points} points, {unbatched:.1f} points/sec)")
    points, batched_s = _time_sweep(spec, jobs, None, SWEEP_REPEATS)
    batched = points / batched_s
    print(f"batched   (batch_size=auto): {batched_s:.2f}s "
          f"({points} points, {batched:.1f} points/sec)")
    speedup = batched / unbatched
    print(f"batched/unbatched sweep speedup: {speedup:.2f}x "
          f"({jobs} worker(s), preset {SWEEP_PRESET}, "
          f"warmup {SWEEP_WARMUP}, measure {SWEEP_MEASURE})")

    if args.check:
        reference = (load_reference(COMMITTED)
                     .get("sweep_points_per_sec") or {})
        ref_speedup = reference.get("speedup")
        failures = 0
        if speedup < SWEEP_SPEEDUP_FLOOR:
            failures += 1
            print(f"sweep check REGRESSION: speedup {speedup:.2f}x "
                  f"below the absolute floor "
                  f"{SWEEP_SPEEDUP_FLOOR:.2f}x")
        if ref_speedup:
            floor = ref_speedup * (1.0 - PER_CONFIG_TOLERANCE)
            if speedup < floor:
                failures += 1
                print(f"sweep check REGRESSION: speedup {speedup:.2f}x "
                      f"vs committed {ref_speedup:.2f}x (floor "
                      f"{floor:.2f}x, tolerance "
                      f"{PER_CONFIG_TOLERANCE:.0%})")
        if not failures:
            print("sweep check OK")
        return 1 if failures else 0

    output = args.output or COMMITTED
    document = load_reference(output)
    document["sweep_points_per_sec"] = {
        "preset": SWEEP_PRESET,
        "warmup": SWEEP_WARMUP, "measure": SWEEP_MEASURE,
        "engine": "kernel",
        "points": points,
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "unbatched": round(unbatched, 2),
        "batched": round(batched, 2),
        "speedup": round(speedup, 3),
        "generated": datetime.now(timezone.utc).isoformat(),
    }
    with open(output, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded sweep_points_per_sec in {output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the timing pipeline (simulated insts/sec)")
    parser.add_argument("--warmup", type=int, default=2000,
                        help="functional warmup instructions per config")
    parser.add_argument("--measure", type=int, default=4000,
                        help="timed (measured) instructions per config")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per config; best time is kept")
    parser.add_argument("--configs", nargs="*", default=None,
                        choices=sorted(harness.BENCH_CONFIGS),
                        help="subset of configs to run (default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces and one repeat (CI sanity run)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the results (default: "
                             "BENCH_pipeline.json; with --check, "
                             "nothing is written unless given)")
    parser.add_argument("--save-baseline", action="store_true",
                        help="write the result as the seed baseline "
                             "snapshot instead of BENCH_pipeline.json")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if the headline speedup "
                             "regressed more than 15%% vs the committed "
                             "BENCH_pipeline.json")
    parser.add_argument("--sweep", action="store_true",
                        help="benchmark end-to-end sweep throughput "
                             "(ltp-queues preset) batched vs "
                             "unbatched; with --check, gate instead "
                             "of recording")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --sweep "
                             "(default: REPRO_JOBS / CPU count)")
    args = parser.parse_args(argv)

    if args.sweep:
        return sweep_bench(args)

    reference = load_reference(COMMITTED) if args.check else {}

    warmup, measure, repeats = args.warmup, args.measure, args.repeats
    if args.smoke:
        warmup, measure, repeats = 300, 600, 1
    if args.check:
        # the gate compares best-of-N wall times; a single tiny-trace
        # repeat is too noisy to sit 15% from the floor
        repeats = max(repeats, 3)

    document = harness.run_bench(warmup=warmup, measure=measure,
                                 repeats=repeats, names=args.configs)
    document["schema"] = 1
    document["generated"] = datetime.now(timezone.utc).isoformat()
    document["python"] = platform.python_version()
    document["machine"] = platform.machine()
    document["smoke"] = bool(args.smoke)

    if args.save_baseline:
        output = harness.BASELINE_SNAPSHOT
    else:
        # a gate run leaves the committed reference alone
        output = args.output or (None if args.check else COMMITTED)
        document = harness.attach_baseline(document)
        # keep the --sweep throughput record through re-measurements
        sweep_record = (load_reference(output).get("sweep_points_per_sec")
                        if output is not None else None)
        if sweep_record:
            document["sweep_points_per_sec"] = sweep_record

    rows = document["configs"]
    width = max(len(name) for name in rows)
    print(f"{'config':<{width}}  {'object i/s':>12}  {'kernel i/s':>12}  "
          f"{'IPC':>7}  {'speedup':>8}  {'kernel x':>9}")
    for name, row in rows.items():
        speedup = document.get("speedup_vs_baseline", {}).get(name)
        suffix = f"{speedup:7.2f}x" if speedup else "      --"
        kernel_ips = row.get("kernel", {}).get("insts_per_sec")
        kernel_col = f"{kernel_ips:>12,.0f}" if kernel_ips else f"{'--':>12}"
        engine_x = row.get("engine_speedup")
        engine_col = f"{engine_x:8.2f}x" if engine_x else f"{'--':>9}"
        print(f"{name:<{width}}  {row['insts_per_sec']:>12,.0f}  "
              f"{kernel_col}  {row['ipc']:>7.3f}  {suffix}  {engine_col}")
    if output is not None:
        with open(output, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {output}")
    if args.check:
        return check_regression(document, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
