"""Throughput benchmark harness for the timing pipeline.

Measures *simulated instructions per second* — committed instructions
divided by the wall time of :meth:`Pipeline.run` — on a small set of
representative workload/LTP configurations.  Every pipeline is built by
:meth:`repro.api.Session.build_pipeline`, the recipe real runs use;
trace generation, oracle annotation, predecode and warming happen
there, outside the timed region, so the numbers isolate the
cycle-model hot path that PRs optimise.

``scripts/bench.py`` is the command-line entry point; it writes
``BENCH_pipeline.json`` at the repo root with the current numbers next
to the pre-optimisation seed baseline (``baseline_seed.json`` in this
directory) so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import default_session
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.harness.config import SimConfig
from repro.ltp.config import LTPConfig, no_ltp, proposed_ltp

#: directory holding the committed seed-baseline snapshot
PERF_DIR = Path(__file__).resolve().parent
BASELINE_SNAPSHOT = PERF_DIR / "baseline_seed.json"

#: the headline config the acceptance criteria track
HEADLINE = "milc_baseline"


def _warm_cpu(seconds: float = 2.0) -> None:
    """Spin until the frequency governor reaches steady state.

    A cold CPU clocks the first timed repeats 10-20% low, which reads
    as a phantom regression; every :func:`run_one` spins briefly before
    its timed loop so best-of-N compares like with like.
    """
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1


def _core(kind: str) -> CoreParams:
    return baseline_params() if kind == "baseline" else ltp_params()


def _ltp(kind: str) -> LTPConfig:
    return no_ltp() if kind == "none" else proposed_ltp()


#: name -> (workload, core kind, ltp kind); chosen to cover the hot paths:
#: fp lattice (headline), LTP parking/release, pointer chasing (memory
#: latency bound) and streaming (prefetcher + bandwidth bound).
BENCH_CONFIGS: Dict[str, tuple] = {
    "milc_baseline": ("lattice_milc", "baseline", "none"),
    "milc_ltp": ("lattice_milc", "small", "proposed"),
    "astar_baseline": ("ptrchase_astar", "baseline", "none"),
    "triad_baseline": ("stream_triad", "baseline", "none"),
}


def run_one(name: str, warmup: int, measure: int, repeats: int,
            engine: str = "object") -> dict:
    """Benchmark one named configuration; returns a result row.

    *engine* selects the timing implementation: the reference object
    pipeline or the columnar kernel (:mod:`repro.core.kernel`).  The
    session's trace cache prepares the trace, oracle and (for the
    kernel) predecode once; each repeat builds and warms a fresh
    pipeline untimed and times only its ``run()``.
    """
    workload_name, core_kind, ltp_kind = BENCH_CONFIGS[name]
    config = SimConfig(workload=workload_name, core=_core(core_kind),
                       ltp=_ltp(ltp_kind), warmup=warmup, measure=measure,
                       engine=engine)
    session = default_session()

    _warm_cpu()
    times: List[float] = []
    stats = None
    for _ in range(repeats):
        pipeline = session.build_pipeline(config)
        start = time.perf_counter()
        stats = pipeline.run()
        times.append(time.perf_counter() - start)

    best = min(times)
    return {
        "workload": workload_name,
        "core": core_kind,
        "ltp": ltp_kind,
        "engine": engine,
        "committed": stats.committed,
        "cycles": stats.cycles,
        "ipc": round(stats.ipc, 4),
        "best_seconds": round(best, 6),
        "median_seconds": round(statistics.median(times), 6),
        "insts_per_sec": round(stats.committed / best, 1),
    }


def run_bench(warmup: int = 2000, measure: int = 4000, repeats: int = 3,
              names: Optional[List[str]] = None) -> dict:
    """Run the full benchmark matrix; returns the result document body.

    Every configuration is measured A/B on both engines.  The
    object-engine numbers stay in the row's historical top-level fields
    (the long-running perf trajectory of the reference pipeline); the
    kernel run lands under ``row["kernel"]`` with the per-config
    kernel-over-object ratio in ``row["engine_speedup"]`` (also
    aggregated in the document's ``engine_speedup`` map).  Both engines
    must report identical ``committed``/``cycles``/``ipc`` — a
    divergence here is a correctness bug, not a perf result.
    """
    names = names or list(BENCH_CONFIGS)
    configs = {}
    engine_speedup = {}
    for name in names:
        row = run_one(name, warmup, measure, repeats, engine="object")
        kernel_row = run_one(name, warmup, measure, repeats,
                             engine="kernel")
        for field in ("committed", "cycles", "ipc"):
            if row[field] != kernel_row[field]:
                raise AssertionError(
                    f"engine divergence on {name}: {field} "
                    f"{row[field]} (object) vs {kernel_row[field]} "
                    f"(kernel)")
        row["kernel"] = {
            "best_seconds": kernel_row["best_seconds"],
            "median_seconds": kernel_row["median_seconds"],
            "insts_per_sec": kernel_row["insts_per_sec"],
        }
        row["engine_speedup"] = round(
            kernel_row["insts_per_sec"] / row["insts_per_sec"], 3)
        engine_speedup[name] = row["engine_speedup"]
        configs[name] = row
    return {
        "warmup": warmup,
        "measure": measure,
        "repeats": repeats,
        "configs": configs,
        "engine_speedup": engine_speedup,
    }


def load_baseline() -> Optional[dict]:
    """The committed pre-optimisation (seed) baseline, if present."""
    if not BASELINE_SNAPSHOT.is_file():
        return None
    try:
        with open(BASELINE_SNAPSHOT) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def attach_baseline(document: dict) -> dict:
    """Add the seed baseline and per-config speedups to *document*.

    Two speedup maps against the committed seed: the object engine's
    (``speedup_vs_baseline``, the reference pipeline's own trajectory)
    and the kernel engine's (``kernel_speedup_vs_baseline``).  The
    ``headline_speedup`` tracks the *kernel* engine — the shipping fast
    path — on the headline config; the per-config object numbers remain
    gated separately by ``scripts/bench.py --check``, so kernel gains
    can never mask an object-path regression.
    """
    baseline = load_baseline()
    document["headline"] = HEADLINE
    if baseline is None:
        return document
    document["baseline"] = baseline
    speedup = {}
    kernel_speedup = {}
    for name, row in document["configs"].items():
        base_row = baseline.get("configs", {}).get(name)
        if base_row and base_row.get("insts_per_sec"):
            base_ips = base_row["insts_per_sec"]
            speedup[name] = round(row["insts_per_sec"] / base_ips, 3)
            kernel_row = row.get("kernel")
            if kernel_row:
                kernel_speedup[name] = round(
                    kernel_row["insts_per_sec"] / base_ips, 3)
    document["speedup_vs_baseline"] = speedup
    document["kernel_speedup_vs_baseline"] = kernel_speedup
    document["headline_engine"] = "kernel"
    if HEADLINE in kernel_speedup:
        document["headline_speedup"] = kernel_speedup[HEADLINE]
    elif HEADLINE in speedup:
        document["headline_speedup"] = speedup[HEADLINE]
    return document
