"""Online sweep QA: the :class:`SweepInspector`.

A long sweep is write-only without it: a silently wrong
:class:`~repro.api.result.SimResult` — a stat-conservation violation
from a miscompiled worker, an IPC outlier from a misconfigured host, a
straggling or retrying worker — is otherwise only discoverable after
the run by manual inspection.  The inspector sits on the existing
execution surfaces and validates the sweep *while it runs*:

* as a :data:`~repro.api.exec.ProgressCallback` it watches every
  lifecycle event (:class:`~repro.api.exec.ExecEvent`) for
  **operational alarms** — stragglers (started→finished latency far
  above the sweep's own distribution) and a retry rate above
  threshold;
* via :meth:`SweepInspector.observe` it validates every **landed
  result** — hard stat-conservation invariants lifted from the
  differential-test assertions (:func:`stat_invariants`) and robust
  per-workload outlier detection over IPC/CPI/energy
  (median + MAD z-score, seeded from prior rows when a store is
  bound, because stored points flow through ``observe`` first).

Confirmed anomalies become :class:`~repro.api.store.Annotation` rows
in the bound :class:`~repro.api.store.ResultStore`.  Data anomalies
(``invariant``, ``outlier``) quarantine their key — the stored result
is suspect, and a resumed ``Session.sweep`` re-simulates exactly the
quarantined points.  A re-simulated point that lands the very values
its standing ``outlier`` annotation recorded is deterministic, not
suspect: it is annotated again without quarantine, and once so
recorded it is not annotated again, so repeated resumes converge.
Operational alarms (``straggler``, ``retry-rate``) are recorded
without quarantine: the landed data is fine, only its execution was
slow or flaky.

The inspector never touches the simulation loop — it observes the
event stream and landed results, so the hot path's cost profile is
unchanged (the ``bench.py --check`` gate holds).
"""

from __future__ import annotations

import time
from collections import deque
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from repro.api.exec import (EVENT_ANOMALY, EVENT_FAILED, EVENT_FINISHED,
                            EVENT_RETRIED, EVENT_STARTED, ExecEvent,
                            ProgressCallback)
from repro.api.result import SimResult
from repro.api.store import Annotation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.store import ResultStore

#: annotation ``check`` values the inspector emits
CHECK_INVARIANT = "invariant"
CHECK_OUTLIER = "outlier"
CHECK_STRAGGLER = "straggler"
CHECK_RETRY_RATE = "retry-rate"

#: checks whose anomalies quarantine the key's stored result
QUARANTINE_CHECKS = (CHECK_INVARIANT, CHECK_OUTLIER)

#: MAD -> standard-deviation consistency factor (normal distribution)
_MAD_SCALE = 1.4826

# Check thresholds, deliberately loose.  The statistical ones trade
# detection latency for false-positive rate: a baseline needs
# BASELINE_MIN clean points per workload before outlier verdicts fire,
# the MAD scale is floored at REL_SCALE_FLOOR of the median (identical
# baselines otherwise make every deviation infinitely significant),
# and the z threshold is far outside normal sweep variation.

#: stats fed into the per-workload rolling baselines
METRICS = ("ipc", "cpi", "energy")
#: robust z-score above which a point is an outlier
Z_THRESHOLD = 6.0
#: baseline samples required before outlier verdicts fire
BASELINE_MIN = 5
#: rolling-baseline window per workload/metric
BASELINE_WINDOW = 64
#: scale floor as a fraction of the baseline median
REL_SCALE_FLOOR = 0.02
#: finished latency > factor x median latency flags a straggler
STRAGGLER_FACTOR = 4.0
#: latency samples required before straggler verdicts fire
STRAGGLER_MIN_SAMPLES = 6
#: absolute latency floor (seconds) under which nothing straggles
STRAGGLER_FLOOR_S = 0.5
#: retried / attempted ratio above which the alarm latches
RETRY_RATE_THRESHOLD = 0.5
#: attempts required before the retry-rate alarm can fire
RETRY_MIN_ATTEMPTS = 6


# ----------------------------------------------------------------------
# hard invariants
# ----------------------------------------------------------------------
def stat_invariants(result: SimResult) -> List[str]:
    """Conservation violations in a landed result (empty = clean).

    The checks are lifted from the differential-test assertions
    (``tests/test_policies_differential.py``) and restated over the
    flattened stats dict, tolerant of absent keys so fabricated
    (mock) and historical rows validate too:

    * every numeric statistic is non-negative;
    * the measure window is respected (``0 < committed <= measure``,
      ``cycles >= 1``) and rename conserves (``renamed == committed``);
    * ``ipc``/``cpi`` agree with the committed/cycle accounting;
    * LTP parking conserves (``ltp_parked == ltp_released``);
    * peak occupancies never exceed the configured structure sizes.
    """
    stats = result.stats
    config = result.config
    problems: List[str] = []

    for name, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value < 0:
            problems.append(f"negative counter {name}={value}")

    cycles = stats.get("cycles")
    committed = stats.get("committed")
    if cycles is not None and cycles < 1:
        problems.append(f"cycles={cycles} < 1")
    if committed is not None:
        if committed <= 0:
            problems.append(f"committed={committed} <= 0")
        elif committed > config.measure:
            problems.append(
                f"committed={committed} exceeds the measure window "
                f"({config.measure})")
        renamed = stats.get("renamed")
        if renamed is not None and renamed != committed:
            problems.append(
                f"renamed={renamed} != committed={committed}")

    if committed and cycles:
        expected_ipc = float(committed) / float(cycles)
        for name, expected in (("ipc", expected_ipc),
                               ("cpi", 1.0 / expected_ipc)):
            value = stats.get(name)
            if value is None:
                continue
            if abs(float(value) - expected) > 1e-6 * max(1.0, expected):
                problems.append(
                    f"{name}={value} inconsistent with "
                    f"committed/cycles ({expected:.6f})")

    parked = stats.get("ltp_parked")
    released = stats.get("ltp_released")
    if parked is not None and released is not None and parked != released:
        problems.append(
            f"ltp_parked={parked} != ltp_released={released}")

    limits: List[Tuple[str, Optional[int]]] = [
        ("rob", config.core.rob_size), ("iq", config.core.iq_size),
        ("lq", config.core.lq_size), ("sq", config.core.sq_size),
        ("ltp", config.ltp.entries)]
    for name, limit in limits:
        peak = stats.get(f"peak_{name}")
        if limit is not None and peak is not None and peak > limit:
            problems.append(f"peak_{name}={peak} exceeds size {limit}")
    return problems


def _metric_values(result: SimResult) -> Dict[str, float]:
    """Extract the baseline :data:`METRICS` present in a result.

    ``"energy"`` is derived through the energy model when the stats
    carry the occupancy averages it consumes; fabricated rows without
    them simply skip the metric.
    """
    values: Dict[str, float] = {}
    for metric in METRICS:
        if metric == "energy":
            try:
                from repro.energy.model import compute_energy
                values[metric] = compute_energy(
                    result.config.core, result.config.ltp, result.stats,
                    policy=result.config.policy).total
            except Exception:
                continue
        else:
            raw = result.stats.get(metric)
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                values[metric] = float(raw)
    return values


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# the inspector
# ----------------------------------------------------------------------
class SweepInspector:
    """Online validation over a sweep's events and landed results.

    Parameters
    ----------
    store:
        Destination for :class:`~repro.api.store.Annotation` rows
        (``None`` keeps verdicts in-process only, on
        :attr:`anomalies`).
    clock:
        Monotonic time source; injectable for deterministic alarm
        tests.

    The check thresholds are this module's constants
    (:data:`Z_THRESHOLD`, :data:`STRAGGLER_FACTOR`, ...).

    The inspector is a valid
    :data:`~repro.api.exec.ProgressCallback` — register it with an
    executor (``Session`` does this when ``inspect=`` is passed) and
    feed every landed result to :meth:`observe`.  Anomalies are also
    surfaced as synthetic :class:`~repro.api.exec.ExecEvent`\\ s
    (``kind == "anomaly"``) to every sink registered with
    :meth:`add_sink`, which is how ``--progress`` renderers see them
    without a second wire format.
    """

    def __init__(self, store: Optional["ResultStore"] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.store = store
        self.clock = clock
        #: every confirmed anomaly, in detection order
        self.anomalies: List[Annotation] = []
        #: results validated so far (store hits included)
        self.observed = 0
        self._sinks: List[ProgressCallback] = []
        #: workload -> metric -> rolling clean values
        self._baselines: Dict[str, Dict[str, Deque[float]]] = {}
        #: key -> (clock at started event, attempt)
        self._started_at: Dict[str, float] = {}
        self._latencies: Deque[float] = deque(maxlen=256)
        self._finished = 0
        self._failed = 0
        self._attempts = 0
        self._retries = 0
        self._retry_flagged = False
        #: clocks at the first and the latest lifecycle event
        self._t0: Optional[float] = None
        self._last_t = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_sink(self, sink: ProgressCallback) -> None:
        """Also deliver synthetic anomaly events to *sink*."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_sink(self, sink: ProgressCallback) -> None:
        """Stop delivering anomaly events to *sink* (idempotent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def _flag(self, annotation: Annotation) -> None:
        self.anomalies.append(annotation)
        if self.store is not None:
            self.store.annotate(annotation)
        event = ExecEvent(kind=EVENT_ANOMALY, key=annotation.key,
                          workload=annotation.workload,
                          index=-1 if annotation.index is None
                          else annotation.index,
                          error=f"{annotation.check}: {annotation.detail}")
        for sink in list(self._sinks):
            try:
                sink(event)
            except Exception:
                pass  # a broken renderer must not fail the sweep

    # ------------------------------------------------------------------
    # lifecycle events (ProgressCallback surface)
    # ------------------------------------------------------------------
    def __call__(self, event: ExecEvent) -> None:
        now = self.clock()
        if self._t0 is None:
            self._t0 = now
        self._last_t = now
        if event.kind == EVENT_STARTED:
            self._attempts += 1
            self._started_at[event.key] = now
        elif event.kind == EVENT_FINISHED:
            self._finished += 1
            self._check_straggler(event, now)
        elif event.kind == EVENT_FAILED:
            self._failed += 1
        elif event.kind == EVENT_RETRIED:
            self._attempts += 1
            self._retries += 1
            self._check_retry_rate(event)

    def _check_straggler(self, event: ExecEvent, now: float) -> None:
        started = self._started_at.pop(event.key, None)
        latency = (now - started if started is not None
                   else event.wall_time_s)
        if latency is None:
            return
        if len(self._latencies) >= STRAGGLER_MIN_SAMPLES:
            typical = _median(list(self._latencies))
            threshold = max(typical * STRAGGLER_FACTOR, STRAGGLER_FLOOR_S)
            if latency > threshold:
                self._flag(Annotation(
                    key=event.key, check=CHECK_STRAGGLER,
                    detail=(f"finished after {latency:.2f}s "
                            f"(median {typical:.2f}s)"),
                    workload=event.workload, index=event.index,
                    quarantine=False,
                    values={"latency_s": round(latency, 4),
                            "median_s": round(typical, 4)}))
        self._latencies.append(latency)

    def _check_retry_rate(self, event: ExecEvent) -> None:
        if self._retry_flagged or self._attempts < RETRY_MIN_ATTEMPTS:
            return
        rate = self._retries / float(self._attempts)
        if rate > RETRY_RATE_THRESHOLD:
            self._retry_flagged = True
            self._flag(Annotation(
                key="alarm:retry-rate", check=CHECK_RETRY_RATE,
                detail=(f"{self._retries}/{self._attempts} attempts "
                        f"were retries ({rate:.0%})"),
                workload=event.workload, quarantine=False,
                values={"retries": self._retries,
                        "attempts": self._attempts,
                        "rate": round(rate, 4)}))

    # ------------------------------------------------------------------
    # landed results
    # ------------------------------------------------------------------
    def observe(self, result: SimResult,
                index: Optional[int] = None) -> List[Annotation]:
        """Validate one landed result; returns the anomalies it raised.

        Call with *every* result a drive lands — store and cache hits
        included.  Prior rows served from a bound store flow through
        here before fresh points land, which is what seeds the
        per-workload baselines from history.  Clean values join the
        rolling baseline; flagged values never do, so one bad point
        cannot widen the envelope that should catch the next one.
        """
        self.observed += 1
        raised: List[Annotation] = []
        problems = stat_invariants(result)
        if problems:
            annotation = Annotation(
                key=result.key, check=CHECK_INVARIANT,
                detail="; ".join(problems),
                workload=result.config.workload, index=index,
                quarantine=True,
                values={"source": result.source,
                        "backend": result.backend})
            self._flag(annotation)
            raised.append(annotation)
            return raised  # broken accounting: keep it off the baseline

        values = _metric_values(result)
        per_workload = self._baselines.setdefault(
            result.config.workload, {})
        outliers: Dict[str, Dict[str, float]] = {}
        for metric, value in values.items():
            baseline = per_workload.setdefault(
                metric, deque(maxlen=BASELINE_WINDOW))
            if len(baseline) >= BASELINE_MIN:
                history = list(baseline)
                center = _median(history)
                mad = _median([abs(v - center) for v in history])
                scale = max(_MAD_SCALE * mad,
                            REL_SCALE_FLOOR * abs(center), 1e-12)
                z = abs(value - center) / scale
                if z > Z_THRESHOLD:
                    outliers[metric] = {
                        "value": value, "median": center,
                        "z": round(z, 2)}
                    continue  # keep the outlier off the baseline
            baseline.append(value)
        if outliers:
            # a re-simulation landing the values the standing outlier
            # annotation recorded is deterministic, not a bad run
            prior = (self.store.annotation(result.key)
                     if self.store is not None else None)
            reproduced = bool(
                prior and prior.check == CHECK_OUTLIER and prior.values
                and all(isinstance(info, dict)
                        and values.get(metric) == info.get("value")
                        for metric, info in prior.values.items()))
            if reproduced and not prior.quarantine:
                return raised  # already recorded: write nothing
            detail = "; ".join(
                f"{metric}={info['value']:.4g} vs median "
                f"{info['median']:.4g} (z={info['z']})"
                for metric, info in sorted(outliers.items()))
            if reproduced:
                detail = f"reproduced on re-simulation: {detail}"
            annotation = Annotation(
                key=result.key, check=CHECK_OUTLIER, detail=detail,
                workload=result.config.workload, index=index,
                quarantine=not reproduced, values=outliers)
            self._flag(annotation)
            raised.append(annotation)
        return raised

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> List[str]:
        """Keys this inspector quarantined, in detection order."""
        seen = []
        for annotation in self.anomalies:
            if annotation.quarantine and annotation.key not in seen:
                seen.append(annotation.key)
        return seen

    def summary(self) -> Dict[str, Any]:
        """JSON-ready report: counters and anomalies."""
        finished = self._finished
        elapsed = 0.0 if self._t0 is None else self._last_t - self._t0
        payload: Dict[str, Any] = {
            "observed": self.observed,
            "finished": finished,
            "failed": self._failed,
            "retried": self._retries,
            "elapsed_s": round(elapsed, 3),
            "anomalies": [a.to_dict() for a in self.anomalies],
            "quarantined": self.quarantined,
        }
        if elapsed > 0 and finished:
            payload["throughput_per_s"] = round(finished / elapsed, 3)
        return payload


def as_inspector(inspect: Any,
                 store: Optional["ResultStore"] = None,
                 ) -> Optional[SweepInspector]:
    """Normalise an ``inspect=`` argument.

    ``None``/``False`` disable inspection; ``True`` builds a default
    :class:`SweepInspector` bound to *store*; an existing inspector
    passes through (adopting *store* if it has none, so one inspector
    can follow a sweep across resumed invocations).
    """
    if inspect is None or inspect is False:
        return None
    if inspect is True:
        return SweepInspector(store=store)
    if isinstance(inspect, SweepInspector):
        if inspect.store is None and store is not None:
            inspect.store = store
        return inspect
    raise TypeError(
        f"inspect must be a bool or SweepInspector, not {inspect!r}")
