#!/usr/bin/env python
"""CI driver for sharded, resumable sweeps.

Each CI matrix job runs one key-stable shard of the headline LTP sweep
into its own result store; a final job merges the shard artifacts with
``repro sweep --merge`` and proves the union is exactly — bit for bit
— what an unsharded serial run produces, and that resuming from the
merged store simulates nothing.  From the repo root::

    python scripts/ci_sweep.py run    --shard 0/4 --store stores/shard0.jsonl
    PYTHONPATH=src python -m repro sweep ltp-queues \\
        --merge stores/*.jsonl --store merged.jsonl
    python scripts/ci_sweep.py verify --store merged.jsonl
    python scripts/ci_sweep.py check-resume --store merged.jsonl
    python -m repro sweep ltp-queues --jobs 4 --store pooled.jsonl
    python scripts/ci_sweep.py compare merged.jsonl pooled.jsonl
    python scripts/ci_sweep.py run --jobs 2 --kill-one --max-retries 2 \\
        --store killed.jsonl
    python scripts/ci_sweep.py inspect-check --report inspect.json

``compare`` asserts two stores are bit-for-bit interchangeable (same
sweep, same keys, identical statistics) — CI uses it to prove one
pooled ``repro sweep`` store equals the k-invocation shard union.
``run --kill-one`` runs the sweep as a ``repro sweep --jobs N``
subprocess and SIGKILLs one of its pool workers once the store holds
the first landed point, proving that the pool retries the dead
worker's points instead of hanging (Linux only: the workers are found
through ``/proc``).  The sweep must finish within
:data:`SWEEP_TIMEOUT_S`, so a hang fails the step.

``inspect-check`` is the anomaly-injection gate for the online sweep
QA (:mod:`repro.api.inspect`): it drives the sweep through a
tampering ``MockExecutor`` (``tests/mock_executor.py``, imported from
the checkout) that injects a scripted retry, a
stat-conservation violation and a consistent IPC outlier, then
asserts the ``SweepInspector`` flags exactly the injected points, the
store carries their annotation rows, and a resumed sweep
re-simulates exactly the quarantined keys and lands bit-identical to
a clean run.

``--preset``/``--spec``, ``--warmup`` and ``--measure`` select the
sweep; every subcommand must be given the same values (the store binds
the spec's ``sweep_id`` and refuses a mismatch).  The driver is plain
:mod:`repro.api` — anything it does can be scripted directly.

``run`` takes ``--batch-size``: the cap on how many
trace-identical points execute as one trace-shared batch (``1``
disables batching).  CI's batched-equivalence job runs the same
sweep batched and unbatched and ``compare``\\ s the stores, proving
batching is a pure optimisation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import (PoolExecutor, ResultStore, Session,  # noqa: E402
                       SweepInspector, SweepSpec, parse_shard)
from repro.api.spec import non_negative_int, positive_int  # noqa: E402
from repro.harness.config import ENGINES  # noqa: E402
from repro.harness.experiments import resolve_sweep_spec  # noqa: E402
from tests.mock_executor import MockExecutor  # noqa: E402

#: how long ``run --kill-one`` waits on its sweep subprocess
SWEEP_TIMEOUT_S = 600.0


def build_spec(args) -> SweepSpec:
    source = str(args.spec) if args.spec is not None else args.preset
    return resolve_sweep_spec(source, warmup=args.warmup,
                              measure=args.measure, engine=args.engine)


def add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="ltp-queues",
                        help="registered sweep preset (default: "
                             "ltp-queues)")
    parser.add_argument("--spec", type=Path, default=None,
                        help="SweepSpec JSON file (overrides --preset)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup instruction budget per point")
    parser.add_argument("--measure", type=int, default=None,
                        help="measured instruction budget per point")
    parser.add_argument("--engine", choices=list(ENGINES),
                        default=None,
                        help="simulation engine for every point "
                             "(every subcommand of one CI leg must "
                             "agree; the sweep_id changes with it)")


def cmd_run(args) -> int:
    spec = build_spec(args)
    if args.kill_one:
        return _run_killing_one_worker(args, spec)
    shard = parse_shard(args.shard) if args.shard else None
    backend = PoolExecutor(jobs=args.jobs, max_retries=args.max_retries,
                           batch_size=args.batch_size)
    # simulate every point: a leg served from another leg's cache
    # writes (or the tracked .simcache) would prove nothing
    with Session() as session, ResultStore(args.store) as store:
        results = session.sweep(spec, backend=backend, store=store,
                                shard=shard, use_cache=False)
    simulated = sum(1 for r in results if not r.cached)
    label = f"shard {args.shard}" if args.shard else "unsharded"
    workers = ""
    if args.jobs != 1:
        # the pool's workers are reaped children by now
        peak_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        workers = f" (pool workers' peak RSS {peak_mb:.1f} MB)"
    print(f"sweep {spec.sweep_id()} {label}: {len(results)} points, "
          f"{simulated} simulated -> {args.store}{workers}")
    return 0


def cmd_compare(args) -> int:
    """Two stores must be bit-for-bit interchangeable."""
    left = ResultStore(args.left)
    right = ResultStore(args.right)
    failures = 0
    if left.sweep_id != right.sweep_id:
        print(f"SWEEP-ID mismatch: {left.sweep_id!r} vs "
              f"{right.sweep_id!r}")
        failures += 1
    left_rows, right_rows = left.load(), right.load()
    for key in sorted(set(left_rows) | set(right_rows)):
        a, b = left_rows.get(key), right_rows.get(key)
        if a is None or b is None:
            where = args.right if a is not None else args.left
            print(f"MISSING {key} in {where}")
            failures += 1
        elif a.stats != b.stats:
            print(f"MISMATCH {key} ({a.config.workload})")
            failures += 1
    if failures:
        print(f"compare FAILED: {failures} difference(s) between "
              f"{args.left} and {args.right}")
        return 1
    print(f"compare OK: {len(left_rows)} points bit-identical "
          f"across {args.left} and {args.right}")
    return 0


def cmd_verify(args) -> int:
    """Serial run vs. merged shards: bit-identical stats per point."""
    spec = build_spec(args)
    store = ResultStore(args.store)
    store.bind(spec.sweep_id())
    configs = spec.expand()
    failures = 0
    # an isolated cache directory so nothing can serve stale results
    with tempfile.TemporaryDirectory() as scratch, \
            Session(cache_dir=scratch) as session:
        for config in configs:
            key = config.key()
            stored = store.get(key)
            fresh = session.run(config, use_cache=False)
            if stored is None:
                print(f"MISSING {key} ({config.workload})")
                failures += 1
            elif stored.stats != fresh.stats:
                print(f"MISMATCH {key} ({config.workload})")
                failures += 1
    extra = set(store.keys()) - {c.key() for c in configs}
    for key in sorted(extra):
        print(f"EXTRA {key}")
        failures += 1
    if failures:
        print(f"verify FAILED: {failures} of {len(configs)} points "
              f"differ from a serial run")
        return 1
    print(f"verify OK: {len(configs)} points bit-identical to a "
          f"serial sweep")
    return 0


def _repro_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else os.pathsep.join([src, existing])
    return env


def _sweep_argv(args, extra):
    argv = ["sweep",
            str(args.spec) if args.spec is not None else args.preset]
    if args.warmup is not None:
        argv += ["--warmup", str(args.warmup)]
    if args.measure is not None:
        argv += ["--measure", str(args.measure)]
    if args.engine is not None:
        argv += ["--engine", args.engine]
    return argv + extra


def _landed_points(store_path: Path) -> int:
    """Result rows in the store so far (every row after the header)."""
    try:
        with open(store_path) as handle:
            return max(0, sum(1 for line in handle if line.strip()) - 1)
    except OSError:
        return 0


def _pool_workers(pid: int) -> list:
    """The forked pool workers of process *pid*, read from ``/proc``.

    A forked worker runs its parent's command line, so children
    running anything else (a helper such as multiprocessing's
    resource tracker) are never picked.
    """
    def cmdline(proc: int):
        try:
            return Path(f"/proc/{proc}/cmdline").read_bytes()
        except OSError:
            return None

    children = []
    for listing in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            children += [int(child) for child in listing.read_text().split()]
        except OSError:
            pass
    own = cmdline(pid)
    return [child for child in children
            if own is not None and cmdline(child) == own]


def _kill_one_worker(store_path: Path, sweep, deadline: float) -> bool:
    """SIGKILL one pool worker of *sweep* once the store holds its first
    landed point; ``False`` if the sweep ended (or time ran out) first."""
    while sweep.poll() is None and time.monotonic() < deadline:
        landed = _landed_points(store_path)
        workers = _pool_workers(sweep.pid) if landed else []
        if workers:
            try:
                os.kill(workers[0], signal.SIGKILL)
            except ProcessLookupError:
                continue  # it exited meanwhile: look again
            print(f"killed pool worker {workers[0]} mid-sweep "
                  f"({landed} point(s) landed)")
            return True
        time.sleep(0.1)
    return False


def _run_killing_one_worker(args, spec) -> int:
    """``run --kill-one``: a ``repro sweep --jobs N`` subprocess loses
    one pool worker mid-sweep and must still land every point."""
    if args.jobs < 2:
        print("run --kill-one needs --jobs >= 2 (a pool to kill a "
              "worker of)")
        return 2
    extra = ["--jobs", str(args.jobs), "--store", str(args.store),
             "--no-cache", "--max-retries", str(args.max_retries)]
    if args.shard:
        extra += ["--shard", args.shard]
    if args.batch_size is not None:
        extra += ["--batch-size", str(args.batch_size)]
    deadline = time.monotonic() + SWEEP_TIMEOUT_S
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro", *_sweep_argv(args, extra)],
        env=_repro_env())
    try:
        killed = _kill_one_worker(args.store, sweep, deadline)
        rc = sweep.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"pooled sweep FAILED: still running after "
              f"{SWEEP_TIMEOUT_S:.0f}s")
        return 1
    finally:
        if sweep.poll() is None:
            for worker in _pool_workers(sweep.pid):
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            sweep.kill()
            sweep.wait()
    if rc != 0:
        print(f"pooled sweep FAILED with exit code {rc}")
        return 1
    if not killed:
        print("kill-one FAILED: the sweep finished before a pool "
              "worker could be killed")
        return 1
    store = ResultStore(args.store)
    print(f"sweep {spec.sweep_id()} over {args.jobs} pool workers (one "
          f"killed mid-sweep): {len(store)} points -> {args.store}")
    return 0


class _TamperingMock(MockExecutor):
    """A ``MockExecutor`` that corrupts chosen points' statistics.

    *tamper* maps a batch index to a function applied to the
    fabricated stats dict — the anomaly-injection vehicle for
    ``inspect-check``.
    """

    def __init__(self, tamper, **kwargs):
        super().__init__(**kwargs)
        self.tamper = dict(tamper)

    def _fabricate(self, point):
        stats = super()._fabricate(point)
        patch = self.tamper.get(point.index)
        return patch(stats) if patch else stats


def _break_conservation(stats):
    """Commit more instructions than the measure window allows."""
    stats["committed"] = stats["committed"] + 7
    return stats


def _implant_outlier(stats):
    """A *consistent* 2x-IPC point: no invariant trips, only the
    statistical baseline can catch it."""
    stats["cycles"] = max(1, stats["cycles"] // 2)
    stats["ipc"] = stats["committed"] / stats["cycles"]
    stats["cpi"] = stats["cycles"] / stats["committed"]
    return stats


def cmd_inspect_check(args) -> int:
    """Prove the inspector catches injected anomalies end to end.

    Three phases over the sweep through ``MockExecutor`` doubles:

    1. a clean run into a reference store;
    2. a tampered run (scripted retry, conservation violation,
       implanted IPC outlier) under a ``SweepInspector`` — exactly
       the two data anomalies must be flagged and quarantined, with
       annotation rows in the store;
    3. a resume with a clean executor — exactly the quarantined keys
       re-simulate, the quarantine lifts, and the store ends
       bit-identical to the clean reference.
    """
    spec = build_spec(args)
    configs = spec.expand()
    by_workload = {}
    for index, config in enumerate(configs):
        by_workload.setdefault(config.workload, []).append(index)
    workloads = list(by_workload)
    if len(workloads) < 2 or len(by_workload[workloads[1]]) < 6:
        print("inspect-check FAILED: the sweep needs >= 2 workloads "
              "with >= 6 points each to host the injections")
        return 1
    # the conservation break goes early in the first workload; the
    # outlier goes on the second workload's sixth point, so its
    # baseline holds baseline_min clean samples when the bad point
    # lands; the scripted fail->ok retry rides on a clean point
    invariant_index = by_workload[workloads[0]][1]
    outlier_index = by_workload[workloads[1]][5]
    retry_index = by_workload[workloads[0]][0]
    injected = {configs[invariant_index].key(): "invariant",
                configs[outlier_index].key(): "outlier"}

    failures = []

    def check(ok, message):
        print(("ok      " if ok else "FAILED  ") + message)
        if not ok:
            failures.append(message)

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        # -- phase 1: clean reference ----------------------------------
        with Session(cache_dir=scratch / "cache") as session:
            with ResultStore(scratch / "reference.jsonl") as reference:
                session.sweep(spec, backend=MockExecutor(),
                              store=reference, use_cache=False)
            reference_rows = {k: r.stats
                              for k, r in reference.load().items()}

            # -- phase 2: tampered run under the inspector -------------
            store = ResultStore(args.store if args.store is not None
                                else scratch / "inspected.jsonl")
            tampered = _TamperingMock(
                {invariant_index: _break_conservation,
                 outlier_index: _implant_outlier},
                script={retry_index: ["fail", "ok"]})
            inspector = SweepInspector(store=store)
            with store:
                session.sweep(spec, backend=tampered, store=store,
                              inspect=inspector, use_cache=False)
            flagged = {a.key: a.check for a in inspector.anomalies}
            check(flagged == injected,
                  f"inspector flags exactly the injected anomalies "
                  f"({sorted(injected.values())})")
            check(sorted(inspector.quarantined) == sorted(injected),
                  "both injected keys are quarantined")
            check(inspector.summary()["retried"] == 1,
                  "the scripted fail->ok retry is counted once")
            reopened = ResultStore(store.path)
            annotated = {a.key: a.check
                         for a in reopened.annotations()}
            check(annotated == injected,
                  "the store carries both annotation rows after "
                  "reopen")
            check(sorted(reopened.quarantined_keys())
                  == sorted(injected),
                  "the reopened store quarantines exactly the "
                  "injected keys")

            # -- phase 3: resume re-runs exactly the quarantine --------
            clean = MockExecutor()
            resume_inspector = SweepInspector(store=store)
            with store:
                results = session.sweep(spec, backend=clean,
                                        store=store,
                                        inspect=resume_inspector,
                                        use_cache=False)
            resimulated = sorted(r.key for r in results if not r.cached)
            check(resimulated == sorted(injected),
                  f"resume re-simulates exactly the "
                  f"{len(injected)} quarantined point(s)")
            check(len(clean.dispatched) == len(injected),
                  "the resume dispatches nothing else")
            check(not resume_inspector.anomalies,
                  "the resumed run is anomaly-free")
            final = ResultStore(store.path)
            check(not list(final.quarantined_keys()),
                  "the fresh rows lift the quarantine")
            final_rows = {k: r.stats for k, r in final.load().items()}
            check(final_rows == reference_rows,
                  f"final store is bit-identical to the clean "
                  f"reference ({len(reference_rows)} points)")

    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        report = {
            "sweep_id": spec.sweep_id(),
            "points": len(configs),
            "injected": injected,
            "flagged": [a.to_dict() for a in inspector.anomalies],
            "resimulated": resimulated,
            "failures": failures,
            "inspector": inspector.summary(),
        }
        args.report.write_text(json.dumps(report, indent=2,
                                          sort_keys=True) + "\n")
        print(f"report -> {args.report}")

    if failures:
        print(f"inspect-check FAILED: {len(failures)} of the "
              f"injected-anomaly assertions did not hold")
        return 1
    print(f"inspect-check OK: {len(injected)} injected anomalies "
          f"caught, quarantined, re-run and healed over "
          f"{len(configs)} points")
    return 0


def cmd_check_resume(args) -> int:
    """Resuming from a complete store must simulate zero points."""
    spec = build_spec(args)
    with Session() as session, ResultStore(args.store) as store:
        results = session.sweep(spec, store=store)
    simulated = [r for r in results if not r.cached]
    if simulated:
        print(f"resume FAILED: {len(simulated)} of {len(results)} "
              f"points re-simulated")
        return 1
    print(f"resume OK: {len(results)} points served from the store, "
          f"0 simulated")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded/resumable sweep driver for CI")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one shard into a store")
    add_spec_options(run_p)
    run_p.add_argument("--shard", default=None, metavar="I/K")
    run_p.add_argument("--store", type=Path, required=True)
    run_p.add_argument("--jobs", "-j", type=non_negative_int, default=1)
    run_p.add_argument("--batch-size", type=positive_int, default=None,
                       metavar="N",
                       help="cap on trace-identical points executed "
                            "as one batch (1 disables batching)")
    run_p.add_argument("--max-retries", type=non_negative_int,
                       default=1, metavar="N",
                       help="re-dispatch attempts per failed point "
                            "(default 1)")
    run_p.add_argument("--kill-one", action="store_true",
                       help="run the sweep as a 'repro sweep' "
                            "subprocess and SIGKILL one pool worker "
                            "after the first landed point")
    run_p.set_defaults(func=cmd_run)

    compare_p = sub.add_parser(
        "compare",
        help="assert two stores are bit-for-bit interchangeable")
    compare_p.add_argument("left", type=Path)
    compare_p.add_argument("right", type=Path)
    compare_p.set_defaults(func=cmd_compare)

    verify_p = sub.add_parser(
        "verify", help="compare a store against an unsharded serial run")
    add_spec_options(verify_p)
    verify_p.add_argument("--store", type=Path, required=True)
    verify_p.set_defaults(func=cmd_verify)

    inspect_p = sub.add_parser(
        "inspect-check",
        help="anomaly-injection gate for the online sweep inspector")
    add_spec_options(inspect_p)
    inspect_p.add_argument("--store", type=Path, default=None,
                           help="keep the inspected store here "
                                "(default: a temp file)")
    inspect_p.add_argument("--report", type=Path, default=None,
                           help="write a JSON report of the gate here")
    inspect_p.set_defaults(func=cmd_inspect_check)

    resume_p = sub.add_parser(
        "check-resume",
        help="assert a resumed sweep simulates zero points")
    add_spec_options(resume_p)
    resume_p.add_argument("--store", type=Path, required=True)
    resume_p.set_defaults(func=cmd_check_resume)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
