"""Record the reference outputs the benchmark checks against.

For every instruction budget a seed can draw, runs the workloads once
and writes ``reference.json``: a stats digest per configuration key and,
for the figure, a digest of the rendered text.  Run it from the
repository root after a change that is meant to alter simulation
results (it takes several minutes)::

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict

import worker
from clock import Clock

SCRATCH = Path(".perfbench") / "record"


def record(workload: Any) -> Dict[str, Any]:
    points, text = workload.iterate(0)
    entry: Dict[str, Any] = {
        "points": {point.result.key: worker.digest(point.result.stats)
                   for point in points}}
    if text is not None:
        entry["text"] = worker.text_digest(text)
    return entry


def main() -> int:
    import repro.api as api
    shutil.rmtree(SCRATCH, ignore_errors=True)
    table: Dict[str, Dict[str, Any]] = {"figure": {}, "sweep": {}}
    with Clock() as clock:
        for index, (warmup, measure) in enumerate(worker.BUDGETS):
            budgets = [(warmup, measure, False),
                       (warmup // worker.FILL_DIVISOR,
                        measure // worker.FILL_DIVISOR, True)]
            for w, m, warm in budgets:
                figure = worker.FigureWorkload(
                    api, clock, SCRATCH / f"figure-{w}-{m}", w, m,
                    warm=warm)
                figure.setup()
                figure.fill()
                with figure.timed():
                    table["figure"][worker.label(w, m)] = record(figure)
            sweep = worker.SweepWorkload(
                api, clock, SCRATCH / f"sweep-{index}", warmup, measure,
                seed=index)
            sweep.setup()
            table["sweep"][worker.label(warmup, measure)] = record(sweep)
            print(f"recorded {worker.label(warmup, measure)}", flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
