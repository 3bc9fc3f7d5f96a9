"""Golden statistics: both engines against a recorded fixture.

The object-vs-kernel differentials run the same shared code (LTP
policy, memory hierarchy) on both sides, so a change to that code
moves both engines together and those tests stay green.  This module
pins the full ``SimStats.as_dict()`` plus the hierarchy's demand and
rejection counters of a few small points to ``golden_stats.json``,
which was recorded before the LTP ready lists and the MSHR-retry gate
existed.  Both engines must still reproduce it exactly.

The grid covers the ticket-driven release paths (NR+NU with 4 and 128
tickets, NR only, eager wakeup), the DRAM-timer monitor draining the
queue (``monitor="auto"``) and a 2-MSHR core that rejects most misses.
Three stall-heavy points pin the rename-stall spans the kernel's
stall-span jump covers: an online-classified NR+NU core with a one-way 8-entry UIT
(insert evictions), unlimited tickets on ``hash_probe``, and the
``baseline-stall`` policy on a 2-MSHR core (MSHR expiries inside
stall spans).  They were recorded before the stall-span jump existed.

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


def _points() -> Dict[str, Tuple[str, object, object, str]]:
    small = ltp_params()
    two_mshrs = small.but(mem=replace(small.mem, mshrs=2))
    points = {
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
        "astar-nrnu-uit8x1": ("ptrchase_astar", small,
                              _fig11_ltp("nr+nu", tickets=16,
                                         monitor="auto",
                                         classifier="online",
                                         ll_predictor="twolevel",
                                         uit_size=8, uit_ways=1)),
        "hash-nrnu-unlimited": ("hash_probe", small,
                                _fig11_ltp("nr+nu", tickets=None,
                                           monitor="auto")),
    }
    points = {name: point + ("ltp",) for name, point in points.items()}
    points["milc-mshr2-baseline"] = ("lattice_milc", two_mshrs,
                                     proposed_ltp(), "baseline-stall")
    return points


def _run(session: Session, workload: str, core, ltp, policy: str,
         engine: str) -> dict:
    config = SimConfig(workload=workload, core=core, ltp=ltp,
                       policy=policy, warmup=WARMUP, measure=MEASURE,
                       engine=engine)
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
    points = _points()
    assert all(point["stats"]["ltp_released"] > 0
               for name, point in golden.items()
               if points[name][3] != "baseline-stall")
    assert max(point["stats"]["stall_lsq"] + point["stats"]["stall_iq"]
               + point["stats"]["stall_regs"]
               for point in golden.values()) > 10_000


@pytest.mark.parametrize("engine", ["object", "kernel"])
@pytest.mark.parametrize("name", sorted(_points()))
def test_engine_reproduces_golden_point(golden, session, name, engine):
    workload, core, ltp, policy = _points()[name]
    got = _run(session, workload, core, ltp, policy, engine)
    want = golden[name]
    assert got["hierarchy"] == want["hierarchy"], (name, engine)
    mismatches = {key: (want["stats"][key], got["stats"].get(key))
                  for key in want["stats"]
                  if want["stats"][key] != got["stats"].get(key)}
    assert set(got["stats"]) == set(want["stats"]), (name, engine)
    assert not mismatches, (name, engine, mismatches)


def record() -> None:
    with Session(cache_dir=None) as session:
        payload = {name: _run(session, *point, "object")
                   for name, point in sorted(_points().items())}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True)
                       + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
