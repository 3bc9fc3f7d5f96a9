"""In-memory span tracing around the public entry point of each layer.

The tracer patches module and class attributes of :mod:`repro` with thin
wrappers that record one span per call: ``[name, start, end, parent,
point]``.  ``parent`` is the index of the enclosing span (``None`` at the
top) and ``point`` the id of the simulation point the call belongs to,
opened by the outermost ``Session.run`` / ``BatchRunner.run`` span.
Counts (builds, instructions, cache hits, ...) are taken at the same
boundaries from the wrapped calls' arguments and results.

Span times come from the ``now`` callable the tracer is given (the
benchmark passes its scaled clock).  Spans stay in memory;
:meth:`Tracer.dump` writes them out once the run ends.
:func:`installed` reports any wrapper still in place, which the untraced
runs check before they measure.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: attribute carried by every tracing wrapper
MARK = "__perfbench_span__"

#: span name -> the per-layer self-time metric it is accounted under
LAYER_OF = {
    "bench.iteration": "bench.self_ms",
    "workloads.build": "workloads.build_ms",
    "isa.trace": "isa.trace_ms",
    "ltp.oracle": "ltp.oracle_ms",
    "core.predecode": "core.predecode_ms",
    "core.loop": "core.loop_ms",
    "harness.warm": "harness.warm_ms",
    "policies.build": "policies.build_ms",
    "policies.warm": "policies.build_ms",
    "harness.key": "harness.key_ms",
    "harness.cache_lookup": "harness.cache_lookup_ms",
    "harness.cache_put": "harness.cache_put_ms",
    "api.store.add": "api.store.add_ms",
    "api.inspect.observe": "api.inspect.observe_ms",
    "api.session.run": "api.session.self_ms",
    "api.session.get_trace": "api.session.self_ms",
    "api.exec.batch_runner": "api.exec.self_ms",
    "api.exec.drive": "api.exec.self_ms",
    "api.experiment.run": "api.experiment.self_ms",
    "api.experiment.render": "api.experiment.self_ms",
}

OnResult = Callable[["Tracer", tuple, dict, Any, int], None]


class Tracer:
    """Span recorder shared by every wrapper of one run."""

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._point: Optional[int] = None
        self._points = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             on_result: Optional[OnResult] = None,
             point: bool = False) -> Any:
        index = len(self.spans)
        opens_point = point and self._point is None
        if opens_point:
            self._point = self._points
            self._points += 1
        entry = [name, 0.0, 0.0,
                 self._stack[-1] if self._stack else None, self._point]
        self.spans.append(entry)
        self._stack.append(index)
        entry[1] = self.now()
        try:
            result = fn(*args, **kwargs)
        finally:
            entry[2] = self.now()
            self._stack.pop()
            if opens_point:
                self._point = None
        if on_result is not None:
            on_result(self, args, kwargs, result, index)
        return result

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[OnResult] = None,
             point: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, on_result, point)
        setattr(wrapper, MARK, name)
        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              on_result: Optional[OnResult] = None,
              point: bool = False) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else owner.__dict__[attr]
        wrapped = self.wrap(name, original, on_result, point)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def spans_since(self, index: int, name: str) -> bool:
        """Whether a *name* span opened after span *index*."""
        return any(span[0] == name for span in self.spans[index + 1:])

    # -- reporting -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_ms(self) -> Dict[str, float]:
        totals: Dict[str, float] = {metric: 0.0
                                    for metric in LAYER_OF.values()}
        for span, own in zip(self.spans, self.self_times()):
            totals[LAYER_OF[span[0]]] += own * 1e3
        return totals

    def wall_ms(self) -> float:
        return sum((span[2] - span[1]) * 1e3 for span in self.spans
                   if span[3] is None)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "point"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, handle)


# ----------------------------------------------------------------------
# the layer entry points
# ----------------------------------------------------------------------
def _targets() -> List[Tuple[Any, str, str, Optional[OnResult], bool]]:
    """``(owner, attribute, span name, count hook, opens a point)``."""
    import repro.api.session as session_mod
    import repro.core.kernel as kernel_mod
    from repro.api.inspect import SweepInspector
    from repro.api.registry import Experiment
    from repro.api.store import ResultStore
    from repro.core.pipeline import Pipeline
    from repro.harness.cachefile import ResultCache
    from repro.harness.config import SimConfig
    from repro.workloads import mixes
    from repro.workloads.base import Workload

    def counter(name: str) -> OnResult:
        def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                 index: int) -> None:
            tracer.counts[name] += 1
        return hook

    def trace_insts(tracer, args, kwargs, result, index):
        tracer.counts["isa.trace_insts"] += len(result)

    def loop(tracer, args, kwargs, result, index):
        tracer.counts["core.sim_cycles"] += result.cycles
        tracer.counts["core.sim_insts"] += result.committed

    def lookup(tracer, args, kwargs, result, index):
        tracer.counts["harness.cache_hits" if result is not None
                      else "harness.cache_misses"] += 1

    def put(tracer, args, kwargs, result, index):
        disk = args[3] if len(args) > 3 else kwargs.get("disk", True)
        if disk:  # put(self, key, value, disk=True)
            tracer.counts["harness.cache_writes"] += 1

    def store_add(tracer, args, kwargs, result, index):
        tracer.counts["api.store.rows"] += int(bool(result))

    def observe(tracer, args, kwargs, result, index):
        tracer.counts["api.inspect.observed"] += 1
        tracer.counts["api.inspect.anomalies"] += len(result)

    def get_trace(tracer, args, kwargs, result, index):
        tracer.counts["api.session.trace_requests"] += 1
        if not tracer.spans_since(index, "isa.trace"):
            tracer.counts["api.session.trace_reuses"] += 1

    def policy(tracer, args, kwargs, result, index):
        tracer.counts["policies.builds"] += 1
        warm = getattr(result, "warm_from_trace", None)
        if warm is not None:
            try:
                result.warm_from_trace = tracer.wrap("policies.warm", warm)
            except AttributeError:
                pass  # slotted policy: its warm-up stays in Session.run

    targets = [(mixes._FACTORIES, name, "workloads.build",
                counter("workloads.builds"), False)
               for name in mixes._FACTORIES]
    targets += [
        (Workload, "trace", "isa.trace", trace_insts, False),
        (session_mod, "annotate_trace", "ltp.oracle",
         counter("ltp.oracle_calls"), False),
        (kernel_mod, "predecode", "core.predecode",
         counter("core.predecodes"), False),
        (Pipeline, "run", "core.loop", loop, False),
        (kernel_mod.KernelPipeline, "run", "core.loop", loop, False),
        (session_mod, "warm_hierarchy", "harness.warm", None, False),
        (session_mod, "warm_branch_predictor", "harness.warm", None, False),
        (session_mod, "build_policy", "policies.build", policy, False),
        (SimConfig, "key", "harness.key", counter("harness.keys"), False),
        (ResultCache, "lookup", "harness.cache_lookup", lookup, False),
        (ResultCache, "put", "harness.cache_put", put, False),
        (ResultStore, "add", "api.store.add", store_add, False),
        (SweepInspector, "observe", "api.inspect.observe", observe, False),
        (session_mod.Session, "batch_runner", "api.exec.batch_runner",
         counter("api.exec.batches"), False),
        (session_mod.Session, "run", "api.session.run",
         counter("api.session.points"), True),
        (session_mod.BatchRunner, "run", "api.session.run",
         counter("api.session.points"), True),
        (session_mod.Session, "get_trace", "api.session.get_trace",
         get_trace, False),
        (session_mod.Session, "run_many", "api.exec.drive", None, False),
        (Experiment, "run", "api.experiment.run", None, False),
        (Experiment, "render", "api.experiment.render", None, False),
    ]
    return targets


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point with *tracer*'s spans."""
    for owner, attr, name, hook, point in _targets():
        tracer.patch(owner, attr, name, hook, point)
    return tracer


def installed() -> List[str]:
    """``owner.attr`` of every layer entry point currently wrapped."""
    found = []
    for owner, attr, _, _, _ in _targets():
        current = owner[attr] if isinstance(owner, dict) \
            else owner.__dict__.get(attr)
        if hasattr(current, MARK):
            label = attr if isinstance(owner, dict) \
                else f"{getattr(owner, '__name__', owner)}.{attr}"
            found.append(label)
    return found
