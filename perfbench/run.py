"""End-to-end and per-layer benchmark of the LTP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload figure-cold --seed 1 \
        --seconds 10 --trace 0

Workloads (each runs in worker processes of its own, serial executor,
scratch result cache and store under ``.perfbench/``):

* ``figure-cold``  -- ``get_experiment("fig11").run(jobs=1)`` from an
  empty result cache: object engine, 135 points, 15 traces.
* ``figure-warm``  -- the same figure re-rendered on a fresh session from
  a cache that set-up filled: no simulation, only workload builds,
  config keys and cache reads.
* ``sweep-cold``   -- the ``policy-compare`` preset on the kernel engine
  into a fresh ``ResultStore`` with ``inspect=True``: 120 points batched
  8 per trace; the seed shuffles each batch's points behind its first.

The seed draws the warmup/measure budget (seed 0: the repo defaults,
6000/2500).  Every point's stats are checked against the digest recorded
in ``reference.json`` for that budget and against
``repro.api.stat_invariants``; the figure's text is checked too.

``--trace 0`` measures the end-to-end metrics in one untraced worker
(which checks that no tracing wrapper is installed) plus set-up-only
workers for the median of imports and session creation (plus, for
figure-warm, the main worker's cache fill).  Its host times are scaled
to the nominal speed of a calibration loop sampled every 50 ms (see
``clock.py``): the sandbox's CPU speed swings by a third or more within
a second.
``--trace 1`` runs one untraced and two traced workers of one iteration
each, on the same scaled clock, and reports per-layer self times and
counts, the tracing overhead, and any count that differs between the two
traced runs (nondeterminism).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figure-cold", "figure-warm", "sweep-cold")
#: samples of imports + session creation per untraced run (the main
#: worker's and set-up-only ones); figure-warm adds its one cache fill
SETUP_SAMPLES = 3
#: a run must finish within this many seconds
RUN_LIMIT_S = 175.0
#: environment that would move the program off the benchmark's inputs
SCRUBBED_ENV = ("REPRO_WARMUP_INSTS", "REPRO_MEASURE_INSTS", "REPRO_JOBS",
                "REPRO_CACHE_DIR")

END_TO_END = {
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

#: per-layer metric -> unit, in report order
PER_LAYER = {
    "workloads.build_ms": "ms", "workloads.builds": "count",
    "isa.trace_ms": "ms", "isa.trace_insts": "count",
    "ltp.oracle_ms": "ms", "ltp.oracle_calls": "count",
    "core.predecode_ms": "ms", "core.predecodes": "count",
    "core.loop_ms": "ms", "core.sim_cycles": "count",
    "core.sim_insts": "count", "core.loop_ns_per_cycle": "ns",
    "core.loop_ns_per_inst": "ns",
    "harness.warm_ms": "ms",
    "policies.build_ms": "ms", "policies.builds": "count",
    "harness.key_ms": "ms", "harness.keys": "count",
    "harness.cache_lookup_ms": "ms", "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "harness.cache_put_ms": "ms", "harness.cache_writes": "count",
    "api.store.add_ms": "ms", "api.store.rows": "count",
    "api.inspect.observe_ms": "ms", "api.inspect.anomalies": "count",
    "api.exec.self_ms": "ms", "api.exec.batches": "count",
    "api.exec.points_per_batch": "count",
    "api.session.self_ms": "ms", "api.session.points": "count",
    "api.session.trace_requests": "count",
    "api.session.trace_reuse_ratio": "ratio",
    "api.experiment.self_ms": "ms",
    "bench.self_ms": "ms",
    "trace.wall_ms": "ms", "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms", "trace.attributed_share": "ratio",
    "trace.count_drift": "count", "trace.spans": "count",
}

#: counts that must repeat exactly for one seed
DETERMINISTIC_COUNTS = (
    "workloads.builds", "isa.trace_insts", "ltp.oracle_calls",
    "harness.cache_hits", "harness.cache_misses", "core.sim_cycles",
    "api.exec.batches")


class Run:
    """Worker processes of one benchmark run, in one scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.base = root / ".perfbench"
        self.scratch = self.base / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.env = {name: value for name, value in os.environ.items()
                    if name not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(root / "src")
        # anything that still reaches for the default cache lands here
        self.env["REPRO_CACHE_DIR"] = str(self.scratch / "default-cache")

    def worker(self, mode: str, seconds: float = 0.0, iterations: int = 0,
               spans: Optional[Path] = None) -> Dict[str, Any]:
        self.count += 1
        scratch = self.scratch / f"worker-{self.count}"
        scratch.mkdir(parents=True)
        out = scratch / "out.json"
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--mode", mode, "--scratch", str(scratch),
                   "--out", str(out), "--seconds", str(seconds),
                   "--iterations", str(iterations)]
        if spans is not None:
            command += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("the run's time limit is spent")
        # subprocess.run kills and reaps the child on timeout
        subprocess.run(command, cwd=self.root, env=self.env,
                       stdout=sys.stderr, check=True, timeout=timeout)
        result = json.loads(out.read_text())
        shutil.rmtree(scratch)
        return result


def simcache_state(root: Path) -> List[tuple]:
    """Names, sizes and mtimes of the tracked result cache's files."""
    directory = root / ".simcache"
    if not directory.is_dir():
        return []
    return sorted((entry.name, entry.stat().st_size,
                   entry.stat().st_mtime_ns)
                  for entry in os.scandir(directory))


def end_to_end(main: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    iterations = main["iterations"]
    point_ms = [ms for it in iterations for ms in it["point_ms"]]
    return {
        "points_per_s": statistics.median(
            it["points"] / it["wall_s"] for it in iterations),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p90": statistics.quantiles(point_ms, n=10)[-1],
        "sim_kips": statistics.median(
            it["insts"] / it["wall_s"] / 1e3 for it in iterations),
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setups) + main["fill_s"],
        "success_rate": 1.0 - main["failed"] / main["attempted"],
    }


def drift(traced: List[Dict[str, Any]]) -> List[str]:
    """Deterministic counts that differ between the traced runs."""
    counts = [run["trace"]["counts"] for run in traced]
    return [name for name in DETERMINISTIC_COUNTS
            if len({c.get(name, 0) for c in counts}) > 1]


def per_layer(untraced: Dict[str, Any],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    runs = [run["trace"] for run in traced]
    counts = runs[0]["counts"]
    metrics: Dict[str, float] = {
        name: statistics.median(run["layer_ms"][name] for run in runs)
        for name in runs[0]["layer_ms"]}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            metrics[name] = counts.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    loop_ns = metrics["core.loop_ms"] * 1e6
    metrics["core.loop_ns_per_cycle"] = ratio(loop_ns,
                                              counts.get("core.sim_cycles"))
    metrics["core.loop_ns_per_inst"] = ratio(loop_ns,
                                             counts.get("core.sim_insts"))
    metrics["api.exec.points_per_batch"] = ratio(
        counts.get("api.session.points", 0), counts.get("api.exec.batches"))
    metrics["api.session.trace_reuse_ratio"] = ratio(
        counts.get("api.session.trace_reuses", 0),
        counts.get("api.session.trace_requests"))
    wall = statistics.median(run["wall_ms"] for run in runs)
    untraced_wall = untraced["iterations"][0]["wall_s"] * 1e3
    metrics["trace.wall_ms"] = wall
    metrics["trace.untraced_wall_ms"] = untraced_wall
    metrics["trace.overhead_ms"] = wall - untraced_wall
    metrics["trace.attributed_share"] = 1.0 - metrics["bench.self_ms"] / wall
    metrics["trace.count_drift"] = len(drift(traced))
    metrics["trace.spans"] = runs[0]["spans"]
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {root / 'src'}; run "
              f"from the repository root", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed)
    before = simcache_state(root)
    problems: List[str] = []
    try:
        if args.trace:
            spans = run.base / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            started = time.monotonic()
            traced = [run.worker(
                "traced", iterations=1,
                spans=spans / f"{args.workload}-seed{args.seed}-0.json")]
            one_run = time.monotonic() - started
            untraced = run.worker("measure", iterations=1)
            # a slow sandbox can leave no room for the drift check's
            # second traced run inside the time limit; say so, never
            # overrun
            if run.deadline - time.monotonic() > 1.25 * one_run:
                traced.append(run.worker(
                    "traced", iterations=1,
                    spans=spans / f"{args.workload}-seed{args.seed}-1.json"))
            else:
                print("perfbench: no time left for the second traced run; "
                      "counts not checked for drift", file=sys.stderr)
            workers = [untraced] + traced
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
            for name in drift(traced):
                problems.append(f"nondeterminism: {name} differs between "
                                f"the traced runs")
            for out in traced:
                if abs(out["trace"]["self_sum_ms"]
                       - out["trace"]["wall_ms"]) > 1e-3:
                    problems.append("span self times do not sum to the "
                                    "traced wall time")
        else:
            main_out = run.worker("measure", seconds=args.seconds)
            setups = [main_out["setup_s"]] + [
                run.worker("setup")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)]
            workers = [main_out]
            metrics = end_to_end(main_out, setups)
            units = END_TO_END
        for out in workers:
            if out.get("wrappers"):
                problems.append("tracing wrappers installed in an untraced "
                                "run: " + ", ".join(out["wrappers"]))
            problems.extend(out["errors"])
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    if simcache_state(root) != before:
        problems.append("the tracked .simcache changed during the run")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    attempted = sum(out["attempted"] for out in workers)
    failed = sum(out["failed"] for out in workers)
    samples = sum(len(it["point_ms"]) for out in workers
                  for it in out["iterations"])
    iterations = sum(len(out["iterations"]) for out in workers)
    print(f"{args.workload} seed={args.seed}: {iterations} iteration(s), "
          f"{samples} point samples, {failed}/{attempted} failed")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
