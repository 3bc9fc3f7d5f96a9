"""In-flight records die by reference count, on both engines.

Writeback drops a record's ``consumers`` list once it has walked it.
That list was the only link from an older record to younger ones
(``producer_records`` links the other way), so a finished point leaves
no reference cycle through its records, and the cyclic collector has
nothing of a run to find.  The test runs one NR+NU LTP point and one
baseline point per engine with ``gc.DEBUG_SAVEALL``, which keeps
everything a collection would free in ``gc.garbage``.

A session dies by reference count too: its executor holds no
reference to it (the session is an argument of each ``run()`` call),
so a dropped session leaves no cycle for ``gc.freeze()`` to keep alive
with every trace it prepared.
"""

import gc
import weakref

import pytest

from repro.api import Session
from repro.core.inflight import InFlightInst
from repro.harness.config import SimConfig
from repro.harness.experiments import baseline_params, ltp_params
from repro.ltp.config import limit_ltp, no_ltp

NR_NU = limit_ltp("nr+nu").but(entries=128, ports=4, tickets=4,
                               park_loads=False, park_stores=False,
                               monitor="auto")


@pytest.mark.parametrize("engine", ["kernel", "object"])
@pytest.mark.parametrize("core,ltp", [(ltp_params(), NR_NU),
                                      (baseline_params(), no_ltp())],
                         ids=["nr+nu", "baseline"])
def test_a_run_leaves_no_record_for_the_collector(tmp_path, engine, core,
                                                  ltp):
    session = Session(cache_dir=str(tmp_path))
    config = SimConfig(workload="ptrchase_astar", core=core, ltp=ltp,
                       warmup=2000, measure=1500, engine=engine)
    session.build_pipeline(config)  # prepare the trace before watching
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        stats = session.build_pipeline(config).run()
        gc.collect()
        cyclic = sum(isinstance(obj, InFlightInst) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert stats.committed == 1500
    assert cyclic == 0


def test_a_dropped_session_dies_by_reference_count(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    config = SimConfig(workload="compute_int", warmup=200, measure=200)
    assert session.run_many([config])[0].stats["committed"] == 200
    alive = weakref.ref(session)
    del session
    assert alive() is None
