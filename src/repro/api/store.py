"""Persistent, append-only sweep result stores.

A :class:`ResultStore` is a JSONL file of
:meth:`repro.api.result.SimResult.to_dict` rows, headed by a record
naming the sweep it belongs to.  It is the durable complement of the
in-process result cache: shards of a sweep running on different
machines (or CI matrix jobs) each write their own store, the files are
merged with :func:`merge_stores`, and
:meth:`repro.api.session.Session.sweep` resumes a partially completed
sweep by skipping every point whose key the store already holds.

Properties the design leans on:

* **append-only** — rows are only ever added, one JSON object per
  line, flushed as each result lands, so a crashed or interrupted
  sweep keeps everything it finished (a torn trailing line is ignored
  on load);
* **dedupe by cache key** — :meth:`ResultStore.load` keeps the last
  row per :meth:`SimConfig.key`, so re-appends and merged overlaps are
  harmless;
* **sweep identity** — the header records a
  :meth:`~repro.api.spec.SweepSpec.sweep_id`; binding a store to a
  different sweep (or merging stores of different sweeps) raises
  instead of silently mixing results.

Besides result rows a store holds **annotation rows**
(:class:`Annotation`, ``"record": "annotation"``): structured anomaly
records the online :class:`~repro.api.inspect.SweepInspector` appends
when a landed result fails validation.  Row kinds share one last-wins
timeline per cache key — an annotation with ``quarantine=True`` marks
the key's result as suspect (``Session.sweep`` then treats it as
not-yet-simulated, so a resumed sweep re-runs exactly the quarantined
points), and a *later* result row for the same key lifts the
quarantine again.  Readers that predate the annotation row kind skip
the unknown rows; result rows have never carried a ``record`` tag, so
new readers parse old stores unchanged.

:func:`summarize` aggregates a store's rows into the per-workload
means (:mod:`repro.analysis.aggregate`) that
:func:`repro.harness.report.render_sweep_summary` prints.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (IO, Any, Dict, Iterable, List, Optional, Sequence,
                    Union)

from repro.analysis.aggregate import arithmetic_mean, geometric_mean
from repro.api.result import SimResult

#: store-file schema (bump on incompatible row/header changes)
STORE_SCHEMA = 1

#: the header record's discriminator value
_HEADER_RECORD = "header"
#: the annotation-row discriminator value (result rows carry no tag)
_ANNOTATION_RECORD = "annotation"

PathLike = Union[str, Path]


@dataclass
class Annotation:
    """One structured anomaly record attached to a sweep point.

    Written by the :class:`~repro.api.inspect.SweepInspector` as its
    durable verdict on a landed result: *which* point (cache ``key``),
    *what* failed (``check`` — e.g. ``"invariant"``, ``"outlier"``,
    ``"straggler"``), human-readable ``detail``, and whether the point
    is ``quarantine``\\ d (its stored result is suspect and must be
    re-simulated on resume) or merely noted (operational alarms).
    ``values`` carries the measurements behind the verdict.
    """

    key: str
    check: str
    detail: str
    workload: str = ""
    #: expansion index of the point, when known (``None`` otherwise)
    index: Optional[int] = None
    quarantine: bool = True
    values: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready store row (tagged with the annotation kind)."""
        payload: Dict[str, Any] = {
            "record": _ANNOTATION_RECORD,
            "schema": STORE_SCHEMA,
            "key": self.key,
            "check": self.check,
            "detail": self.detail,
            "workload": self.workload,
            "quarantine": self.quarantine,
        }
        if self.index is not None:
            payload["index"] = self.index
        if self.values:
            payload["values"] = dict(self.values)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Annotation":
        """Rebuild an annotation from a :meth:`to_dict` row."""
        index = data.get("index")
        return cls(key=str(data["key"]), check=str(data["check"]),
                   detail=str(data.get("detail", "")),
                   workload=str(data.get("workload", "")),
                   index=None if index is None else int(index),
                   quarantine=bool(data.get("quarantine", True)),
                   values=dict(data.get("values") or {}))


class ResultStore:
    """An append-only JSONL store of simulation results for one sweep.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with its parent directory) on the
        first append; an existing file is picked up where it left off.
    sweep_id:
        The owning sweep's identity.  ``None`` adopts whatever an
        existing header declares (or leaves the store unbound); a
        value that contradicts an existing header raises
        ``ValueError``.
    """

    def __init__(self, path: PathLike,
                 sweep_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        #: keys present in the file (insertion order, last-write wins)
        self._results: Dict[str, SimResult] = {}
        #: annotation rows, latest per key (insertion order)
        self._annotations: Dict[str, Annotation] = {}
        #: keys whose stored result is currently quarantined
        self._quarantined: set = set()
        #: rows dropped on load (torn/corrupt lines)
        self.skipped_rows = 0
        self._handle: Optional[IO[str]] = None
        self._header_written = False
        if self.path.is_file():
            self._load_existing()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load_existing(self) -> None:
        with open(self.path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8"))
                except ValueError:
                    # torn trailing write from an interrupted run, or
                    # bytes that are not UTF-8 (UnicodeDecodeError)
                    self.skipped_rows += 1
                    continue
                if not isinstance(payload, dict):
                    self.skipped_rows += 1
                    continue
                if payload.get("record") == _HEADER_RECORD:
                    self._header_written = True
                    self._adopt_sweep_id(payload.get("sweep_id"))
                    continue
                if payload.get("record") == _ANNOTATION_RECORD:
                    try:
                        annotation = Annotation.from_dict(payload)
                    except (KeyError, ValueError, TypeError):
                        self.skipped_rows += 1
                        continue
                    self._absorb_annotation(annotation)
                    continue
                try:
                    result = SimResult.from_dict(payload)
                except (KeyError, ValueError, TypeError):
                    self.skipped_rows += 1
                    continue
                self._results[result.key] = result
                # a result row AFTER a quarantine annotation is the
                # re-run that replaces the suspect data: lifts it
                self._quarantined.discard(result.key)

    def _adopt_sweep_id(self, header_id: Optional[str]) -> None:
        if header_id is None:
            return
        if self.sweep_id is None:
            self.sweep_id = header_id
        elif self.sweep_id != header_id:
            raise ValueError(
                f"store {self.path} belongs to sweep {header_id!r}, "
                f"not {self.sweep_id!r}")

    def bind(self, sweep_id: str) -> "ResultStore":
        """Attach the store to a sweep; mismatches raise.

        ``Session.sweep`` binds the spec's id before running so a
        resume against the wrong spec fails fast instead of merging
        unrelated results.
        """
        if self.sweep_id is None:
            self.sweep_id = sweep_id
        elif self.sweep_id != sweep_id:
            raise ValueError(
                f"store {self.path} belongs to sweep "
                f"{self.sweep_id!r}, not {sweep_id!r}")
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Cache keys present, in first-seen order."""
        return list(self._results)

    def get(self, key: str) -> Optional[SimResult]:
        """The stored result for *key* (last write wins), or ``None``."""
        return self._results.get(key)

    def results(self) -> List[SimResult]:
        """Deduped results, one per key, in first-seen order."""
        return list(self._results.values())

    def load(self) -> Dict[str, SimResult]:
        """Key -> result mapping (deduped, last write per key wins)."""
        return dict(self._results)

    def annotations(self) -> List[Annotation]:
        """Latest annotation per key, in first-annotated order."""
        return list(self._annotations.values())

    def annotation(self, key: str) -> Optional[Annotation]:
        """The latest annotation for *key*, or ``None``."""
        return self._annotations.get(key)

    def quarantined(self, key: str) -> bool:
        """Whether *key*'s stored result is currently quarantined."""
        return key in self._quarantined

    def quarantined_keys(self) -> List[str]:
        """Keys whose stored result is suspect, in annotation order."""
        return [key for key in self._annotations
                if key in self._quarantined]

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)

    def __repr__(self) -> str:
        return (f"ResultStore({str(self.path)!r}, "
                f"sweep_id={self.sweep_id!r}, rows={len(self)})")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _open(self) -> IO[str]:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # a torn trailing write (no final newline) must not corrupt
            # the next row: start appends on a fresh line
            needs_newline = False
            if self.path.is_file() and self.path.stat().st_size > 0:
                with open(self.path, "rb") as peek:
                    peek.seek(-1, os.SEEK_END)
                    needs_newline = peek.read(1) != b"\n"
            self._handle = open(self.path, "a")
            if needs_newline:
                self._handle.write("\n")
        return self._handle

    def _write_row(self, payload: Dict[str, Any]) -> None:
        handle = self._open()
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def _ensure_header(self) -> None:
        if self._header_written:
            return
        self._write_row({"record": _HEADER_RECORD,
                         "schema": STORE_SCHEMA,
                         "sweep_id": self.sweep_id})
        self._header_written = True

    def touch(self) -> "ResultStore":
        """Materialise the file (header included) even with zero rows.

        An empty shard of a sweep must still leave a mergeable store
        artifact behind, so ``Session.sweep`` touches its store up
        front.
        """
        self._ensure_header()
        return self

    def append(self, result: SimResult) -> None:
        """Append one result row (flushed immediately, crash-safe).

        A fresh result row is the last word on its key: any standing
        quarantine is lifted, matching the load-time timeline.
        """
        self._ensure_header()
        self._write_row(result.to_dict())
        self._results[result.key] = result
        self._quarantined.discard(result.key)

    def add(self, result: SimResult) -> bool:
        """Append *result* unless its key is already stored.

        Returns ``True`` when a row was written — the idempotent
        variant sweeps use so resumed runs never bloat the log.  A
        quarantined key accepts the append (the re-run replaces the
        suspect row and lifts the quarantine).
        """
        if result.key in self._results and \
                result.key not in self._quarantined:
            return False
        self.append(result)
        return True

    def _absorb_annotation(self, annotation: Annotation) -> None:
        self._annotations[annotation.key] = annotation
        if annotation.quarantine:
            self._quarantined.add(annotation.key)

    def annotate(self, annotation: Annotation) -> None:
        """Append one annotation row (flushed, last-wins by key).

        With ``quarantine=True`` the key's stored result becomes
        suspect: :meth:`quarantined` reports it, resume-aware callers
        re-simulate the point, and the next :meth:`append` for the key
        lifts the quarantine again.
        """
        self._ensure_header()
        self._write_row(annotation.to_dict())
        self._absorb_annotation(annotation)

    def extend(self, results: Iterable[SimResult]) -> int:
        """``add`` each result; returns how many rows were written."""
        return sum(1 for result in results if self.add(result))

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def merge_stores(destination: PathLike, sources: Sequence[PathLike],
                 sweep_id: Optional[str] = None) -> ResultStore:
    """Merge *sources* into one store at *destination* (returned open).

    Rows are deduped by cache key — the first source holding a key
    wins, matching shard semantics where any duplicate row carries
    identical statistics.  Sweep ids must agree across every source
    (and *destination*, if it already exists); ``None`` headers are
    tolerated and adopt the first concrete id seen.  A source path
    that does not exist raises ``FileNotFoundError`` — a typo or an
    unmatched glob must not silently merge into an empty store.
    """
    missing = [str(source) for source in sources
               if not Path(source).is_file()]
    if missing:
        raise FileNotFoundError(
            f"result store(s) not found: {', '.join(missing)}")
    merged = ResultStore(destination, sweep_id=sweep_id)
    for source in sources:
        store = ResultStore(source)
        if store.sweep_id is not None:
            merged._adopt_sweep_id(store.sweep_id)
        merged.extend(store.results())
        # carry only annotations still standing in their source: a
        # quarantine a later result row already lifted stays lifted
        for annotation in store.annotations():
            if annotation.quarantine and \
                    not store.quarantined(annotation.key):
                continue
            if annotation.key not in merged._annotations:
                merged.annotate(annotation)
        store.close()
    return merged


def _aggregate(rows: List[SimResult]) -> Dict[str, Any]:
    return {
        "points": len(rows),
        "mean_cpi": arithmetic_mean([r.cpi for r in rows]),
        "geomean_ipc": geometric_mean([r.ipc for r in rows]),
        "mean_cycles": arithmetic_mean(
            [float(r.stats["cycles"]) for r in rows]),
    }


def summarize(results: Iterable[SimResult]) -> Dict[str, Any]:
    """Aggregate results into the per-workload summary the CLI prints.

    Returns ``{"points", "simulated", "workloads": {name: {"points",
    "mean_cpi", "geomean_ipc", "mean_cycles"}}}`` — the means come from
    :mod:`repro.analysis.aggregate`, and
    :func:`repro.harness.report.render_sweep_summary` turns the payload
    into a table.  When the results span more than one allocation
    policy (a ``policy-compare`` style sweep) a ``"policies"`` section
    with the same per-group aggregates is included — each policy's
    entry additionally carrying a per-workload ``"workloads"``
    breakdown, which the renderer turns into a grouped bar chart
    (:func:`repro.harness.charts.grouped_bar_chart`) keyed by the
    ``policy`` axis — so policy sweeps render a policy breakdown
    without any special-casing upstream.  When the results include the
    default (``ltp``) policy as a baseline, each other policy's entry
    also carries ``"ed2p_pct"`` — the mean energy-delay-squared delta
    against the ltp rows of the same workloads, through the
    policy-aware energy model (:mod:`repro.energy.model`).
    """
    by_workload: Dict[str, List[SimResult]] = {}
    by_policy: Dict[str, List[SimResult]] = {}
    total = simulated = 0
    for result in results:
        total += 1
        if not result.cached:
            simulated += 1
        by_workload.setdefault(result.config.workload, []).append(result)
        by_policy.setdefault(result.config.policy, []).append(result)
    workloads = {name: _aggregate(rows)
                 for name, rows in sorted(by_workload.items())}
    summary: Dict[str, Any] = {"points": total, "simulated": simulated,
                               "workloads": workloads}
    if len(by_policy) > 1:
        baselines = _policy_energy_baselines(by_policy)
        policies: Dict[str, Any] = {}
        for name, rows in sorted(by_policy.items()):
            per_workload: Dict[str, List[SimResult]] = {}
            for row in rows:
                per_workload.setdefault(row.config.workload,
                                        []).append(row)
            entry = _aggregate(rows)
            entry["workloads"] = {
                workload: _aggregate(group)
                for workload, group in sorted(per_workload.items())}
            ed2p = _policy_ed2p(name, rows, baselines)
            if ed2p is not None:
                entry["ed2p_pct"] = ed2p
            policies[name] = entry
        summary["policies"] = policies
    return summary


def _policy_energy_baselines(by_policy: Dict[str, List[SimResult]],
                             ) -> Dict[str, Any]:
    """workload -> ltp-policy :class:`EnergyBreakdown` baseline."""
    from repro.energy.model import compute_energy
    from repro.policies import DEFAULT_POLICY
    baselines: Dict[str, Any] = {}
    for row in by_policy.get(DEFAULT_POLICY, []):
        workload = row.config.workload
        if workload not in baselines:
            baselines[workload] = compute_energy(
                row.config.core, row.config.ltp, row.stats,
                policy=DEFAULT_POLICY)
    return baselines


def _policy_ed2p(name: str, rows: List[SimResult],
                 baselines: Dict[str, Any]) -> Optional[float]:
    """Mean ED2P delta (percent) of *name* vs the ltp baselines.

    ``None`` when *name* is the baseline itself or no workload of
    *rows* has a baseline row to compare against.
    """
    from repro.energy.model import compute_energy, relative_ed2p
    from repro.policies import DEFAULT_POLICY
    if name == DEFAULT_POLICY or not baselines:
        return None
    deltas = []
    for row in rows:
        base = baselines.get(row.config.workload)
        if base is None:
            continue
        test = compute_energy(row.config.core, row.config.ltp,
                              row.stats, policy=name)
        deltas.append(relative_ed2p(test, base))
    if not deltas:
        return None
    return sum(deltas) / len(deltas)
