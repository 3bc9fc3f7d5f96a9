"""One benchmark process: set up, run one workload, check every point.

``run.py`` starts this script as a child process per measurement, so
each workload runs cold in a process of its own, on the serial
executor, against a scratch result cache and store::

    python3 perfbench/worker.py --workload figure-cold --seed 3 \
        --scratch .perfbench/run-1 --out .perfbench/run-1/out.json \
        [--seconds 10 | --iterations 1] \
        [--mode measure|setup|traced]

Every time is host time scaled by :mod:`clock`.  The result (set-up
time, per-iteration point times, check outcomes, peak RSS and, traced,
the per-layer spans) is written as JSON to ``--out``.  ``PYTHONPATH``
must name the repository's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

import tracer as tracing
from clock import Clock

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: the instruction budgets a seed draws from: within 2% of the repo
#: defaults, so every seed does nearly the same work
DEFAULT_BUDGET = (6000, 2500)
BUDGETS = [(warmup, measure) for warmup in (5900, 6000, 6100)
           for measure in (2450, 2500, 2550)]
#: figure-warm fills its cache at this fraction of the drawn budget
FILL_DIVISOR = 50

FIGURE = "fig11"
SWEEP = "policy-compare"
WORKLOADS = ("figure-cold", "figure-warm", "sweep-cold")
MODES = ("measure", "setup", "traced")


def budget(seed: int) -> Tuple[int, int]:
    """``(warmup, measure)`` for *seed*; seed 0 is the repo default."""
    if seed == 0:
        return DEFAULT_BUDGET
    return random.Random(seed).choice(BUDGETS)


def fill_budget(seed: int) -> Tuple[int, int]:
    warmup, measure = budget(seed)
    return warmup // FILL_DIVISOR, measure // FILL_DIVISOR


def label(warmup: int, measure: int) -> str:
    return f"{warmup}/{measure}"


def digest(stats: Dict[str, Any]) -> str:
    text = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Point:
    """One landed configuration and the host time it took."""

    __slots__ = ("result", "ms")

    def __init__(self, result: Any, ms: float) -> None:
        self.result = result
        self.ms = ms


class FigureWorkload:
    """``get_experiment("fig11").run(jobs=1)`` on a fresh default session.

    Cold: every iteration starts from an empty result cache.  Warm:
    set-up fills one cache (at a small budget) and every iteration
    re-renders the figure from it on a fresh session.
    """

    kind = "figure"

    def __init__(self, api: Any, clock: Clock, scratch: Path, warmup: int,
                 measure: int, warm: bool) -> None:
        self.api = api
        self.clock = clock
        self.scratch = scratch
        self.warmup, self.measure = warmup, measure
        self.warm = warm
        self.cold = not warm
        self.experiment = api.get_experiment(FIGURE)
        self._points: List[Point] = []

    def _session(self, cache_dir: Path) -> Any:
        session = self.api.Session(cache_dir=str(cache_dir),
                                   backend="serial")
        self.api.set_default_session(session)
        return session

    def setup(self) -> None:
        self._session(self.scratch / ("cache-warm" if self.warm
                                      else "cache-setup"))

    def fill(self) -> None:
        """Warm: fill the result cache the iterations read."""
        if self.warm:
            self._figure()

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """Time every ``Session.run`` call: one figure point each."""
        session_cls = self.api.Session
        original = session_cls.__dict__["run"]
        points = self._points
        clock = self.clock

        @functools.wraps(original)
        def timed_run(*args: Any, **kwargs: Any) -> Any:
            start = clock.now()
            result = original(*args, **kwargs)
            points.append(Point(result, (clock.now() - start) * 1e3))
            return result

        session_cls.run = timed_run
        try:
            yield
        finally:
            session_cls.run = original

    def _figure(self) -> str:
        result = self.experiment.run(warmup=self.warmup,
                                     measure=self.measure, jobs=1)
        return self.experiment.render(result)

    def iterate(self, index: int) -> Tuple[List[Point], Optional[str]]:
        self._points.clear()
        self._session(self.scratch / ("cache-warm" if self.warm
                                      else f"cache-{index}"))
        text = self._figure()
        return list(self._points), text


class SweepWorkload:
    """The ``policy-compare`` preset on the kernel engine, cold, in a
    fresh store with online inspection; the seed shuffles submission."""

    kind = "sweep"
    cold = True

    def __init__(self, api: Any, clock: Clock, scratch: Path, warmup: int,
                 measure: int, seed: int) -> None:
        from repro.harness.experiments import sweep_preset
        self.api = api
        self.clock = clock
        self.scratch = scratch
        self.spec = sweep_preset(SWEEP, warmup=warmup, measure=measure)
        self.spec.engine = "kernel"
        # the seed shuffles the points inside each trace batch behind its
        # first one: the batch order (which traces the session's LRU
        # holds together, so peak memory) and the first point (which
        # pays for the trace, so the slow tail) stay the same for every seed
        rng = random.Random(seed)
        configs = self.spec.expand()
        per_batch = len(configs) // len(self.spec.workloads)
        self.configs = []
        for start in range(0, len(configs), per_batch):
            batch = configs[start:start + per_batch]
            rest = batch[1:]
            rng.shuffle(rest)
            self.configs += batch[:1] + rest

    def setup(self) -> None:
        self.api.set_default_session(self.api.Session(
            cache_dir=str(self.scratch / "cache-setup"), backend="serial"))

    def fill(self) -> None:
        """Nothing to fill: every iteration starts cold."""

    def timed(self) -> ContextManager[None]:
        """Sweep points are timed from progress events; no hook."""
        return contextlib.nullcontext()

    def iterate(self, index: int) -> Tuple[List[Point], Optional[str]]:
        api = self.api
        clock = self.clock
        session = api.Session(cache_dir=str(self.scratch / f"cache-{index}"),
                              backend="serial")
        api.set_default_session(session)
        store = api.ResultStore(self.scratch / f"store-{index}.jsonl")
        store.bind(self.spec.sweep_id()).touch()
        elapsed: Dict[int, float] = {}
        last = [0.0]

        def progress(event: Any) -> None:
            if event.kind == "finished":
                now = clock.now()
                elapsed[event.index] = (now - last[0]) * 1e3
                last[0] = now

        last[0] = clock.now()
        try:
            results = session.run_many(self.configs, store=store,
                                       progress=progress, inspect=True)
        finally:
            store.close()
        return [Point(result, elapsed[index])
                for index, result in enumerate(results)], None


def build_workload(api: Any, clock: Clock, name: str, scratch: Path,
                   seed: int) -> Any:
    if name == "sweep-cold":
        return SweepWorkload(api, clock, scratch, *budget(seed), seed=seed)
    warm = name == "figure-warm"
    warmup, measure = fill_budget(seed) if warm else budget(seed)
    return FigureWorkload(api, clock, scratch, warmup, measure, warm=warm)


def reference_for(workload: Any) -> Dict[str, Any]:
    with open(REFERENCE) as handle:
        table = json.load(handle)[workload.kind]
    if workload.kind == "figure":
        key = label(workload.warmup, workload.measure)
    else:
        key = label(workload.spec.warmup, workload.spec.measure)
    return table[key]


def check(api: Any, points: List[Point], text: Optional[str],
          reference: Dict[str, Any]) -> List[str]:
    """Every mismatch of one iteration's output, one message each."""
    problems = []
    expected = reference["points"]
    for point in points:
        result = point.result
        want = expected.get(result.key)
        got = digest(result.stats)
        if want != got:
            problems.append(f"{result.config.workload} {result.key}: stats "
                            f"digest {got} != reference {want}")
        for problem in api.stat_invariants(result):
            problems.append(f"{result.config.workload} {result.key}: "
                            f"{problem}")
    if text is not None and text_digest(text) != reference.get("text"):
        problems.append(f"rendered {FIGURE} differs from the reference")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=0,
                        help="run exactly this many (0: for --seconds)")
    parser.add_argument("--mode", default="measure", choices=MODES)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="traced: write spans here")
    args = parser.parse_args(argv)

    with Clock() as clock:
        out = measure(args, clock)
    Path(args.out).write_text(json.dumps(out))
    return 0


def measure(args: argparse.Namespace, clock: Clock) -> Dict[str, Any]:
    """Set up and, unless ``--mode setup``, run and check the workload."""
    import repro.api as api
    workload = build_workload(api, clock, args.workload, Path(args.scratch),
                              args.seed)
    workload.setup()
    out: Dict[str, Any] = {"setup_s": clock.now()}
    if args.mode == "setup":
        return out
    start = clock.now()
    workload.fill()
    out["fill_s"] = clock.now() - start

    reference = reference_for(workload)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.install(tracing.Tracer(clock.now))
    else:
        out["wrappers"] = tracing.installed()

    iterations = []
    attempted = failed = 0
    errors: List[str] = []
    deadline = clock.now() + args.seconds
    index = 0
    with workload.timed():
        while True:
            start = clock.now()
            try:
                if tracer is not None:
                    points, text = tracer.call("bench.iteration",
                                               workload.iterate, (index,), {})
                else:
                    points, text = workload.iterate(index)
            except Exception:  # noqa: BLE001 - reported as failed points
                errors.append(traceback.format_exc())
                attempted += len(reference["points"])
                failed += len(reference["points"])
                break
            end = clock.now()
            problems = check(api, points, text, reference)
            errors.extend(problems)
            attempted += len(points) + (text is not None)
            failed += len(problems)
            insts = sum(int(point.result.stats["committed"])
                        for point in points
                        if not (workload.cold and point.result.cached))
            iterations.append({"wall_s": end - start, "points": len(points),
                               "point_ms": [point.ms for point in points],
                               "insts": insts})
            index += 1
            if args.iterations and index >= args.iterations:
                break
            if not args.iterations and clock.now() >= deadline:
                break

    out.update(iterations=iterations, attempted=attempted, failed=failed,
               errors=errors[:20],
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {"wall_ms": tracer.wall_ms(),
                        "self_sum_ms": sum(tracer.self_times()) * 1e3,
                        "layer_ms": tracer.layer_ms(),
                        "counts": dict(tracer.counts),
                        "spans": len(tracer.spans)}
        if args.spans:
            tracer.dump(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
