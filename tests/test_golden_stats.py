"""Golden statistics: both engines against a recorded fixture.

The object-vs-kernel differentials run the same shared code (LTP
controller, memory hierarchy) on both sides, so a change to that code
moves both engines together and those tests stay green.  This module
pins the full ``SimStats.as_dict()`` plus the hierarchy's demand and
rejection counters of a few small points to ``golden_stats.json``,
which was recorded before the LTP ready lists and the MSHR-retry gate
existed.  Both engines must still reproduce it exactly.

The grid covers the ticket-driven release paths (NR+NU with 4 and 128
tickets, NR only, eager wakeup), the DRAM-timer monitor draining the
queue (``monitor="auto"``) and a 2-MSHR core that rejects most misses.

Re-record (only when a change is *meant* to move results)::

    PYTHONPATH=src python tests/test_golden_stats.py --record
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.api import Session
from repro.core.params import ltp_params
from repro.harness.config import SimConfig
from repro.ltp.config import limit_ltp, proposed_ltp

FIXTURE = Path(__file__).with_name("golden_stats.json")
WARMUP = 400
MEASURE = 1200


def _fig11_ltp(mode: str, **overrides):
    """Figure 11's queue shape: 128 entries, 4 ports, registers only."""
    return limit_ltp(mode).but(entries=128, ports=4, park_loads=False,
                               park_stores=False, **overrides)


def _points() -> Dict[str, Tuple[str, object, object]]:
    small = ltp_params()
    two_mshrs = small.but(mem=replace(small.mem, mshrs=2))
    return {
        "astar-nrnu-t4": ("ptrchase_astar", small,
                          _fig11_ltp("nr+nu", tickets=4, monitor="auto")),
        "milc-nrnu-t128": ("lattice_milc", small,
                           _fig11_ltp("nr+nu", tickets=128,
                                      monitor="auto")),
        "gather-nr": ("sparse_gather", small,
                      _fig11_ltp("nr", tickets=16, monitor="on")),
        "milc-eager": ("lattice_milc", small,
                       _fig11_ltp("nr+nu", tickets=32, monitor="on",
                                  wakeup_policy="eager")),
        "astar-nrnu-unlimited": ("ptrchase_astar", small,
                                 _fig11_ltp("nr+nu", tickets=None,
                                            monitor="auto")),
        "gather-mshr2-nrnu": ("sparse_gather", two_mshrs,
                              _fig11_ltp("nr+nu", tickets=8,
                                         monitor="auto")),
        "milc-mshr2-proposed": ("lattice_milc", two_mshrs,
                                proposed_ltp()),
    }


def _run(session: Session, workload: str, core, ltp,
         engine: str) -> dict:
    config = SimConfig(workload=workload, core=core, ltp=ltp,
                       warmup=WARMUP, measure=MEASURE, engine=engine)
    pipeline = session.build_pipeline(config.validate())
    stats = pipeline.run().as_dict()
    hierarchy = pipeline.hierarchy
    return {
        "stats": stats,
        "hierarchy": {
            "demand_accesses": hierarchy.stats.demand_accesses,
            "mshr_rejections": hierarchy.stats.mshr_rejections,
            "mshr_full_rejections": hierarchy.mshrs.full_rejections,
            "l1d_misses": hierarchy.l1d.misses,
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    with Session(cache_dir=str(tmp_path_factory.mktemp("golden"))) as s:
        yield s


def test_fixture_covers_every_point(golden):
    assert sorted(golden) == sorted(_points())


def test_fixture_exercises_the_gated_paths(golden):
    """The grid must keep reaching what it exists to pin down."""
    rejections = [point["hierarchy"]["mshr_rejections"]
                  for point in golden.values()]
    assert max(rejections) > 100
    drained = [name for name, point in golden.items()
               if 0 < point["stats"]["ltp_enabled_cycles"]
               < point["stats"]["cycles"]]
    assert drained
    assert all(point["stats"]["ltp_released"] > 0
               for point in golden.values())


@pytest.mark.parametrize("engine", ["object", "kernel"])
@pytest.mark.parametrize("name", sorted(_points()))
def test_engine_reproduces_golden_point(golden, session, name, engine):
    workload, core, ltp = _points()[name]
    got = _run(session, workload, core, ltp, engine)
    want = golden[name]
    assert got["hierarchy"] == want["hierarchy"], (name, engine)
    mismatches = {key: (want["stats"][key], got["stats"].get(key))
                  for key in want["stats"]
                  if want["stats"][key] != got["stats"].get(key)}
    assert set(got["stats"]) == set(want["stats"]), (name, engine)
    assert not mismatches, (name, engine, mismatches)


def record() -> None:
    with Session(cache_dir=None) as session:
        payload = {name: _run(session, workload, core, ltp, "object")
                   for name, (workload, core, ltp)
                   in sorted(_points().items())}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True)
                       + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
