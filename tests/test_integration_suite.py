"""Cross-workload integration sweeps (small budgets, every kernel)."""

import pytest

from repro.api import default_session
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.core.params import ltp_params
from repro.workloads import (MLP_SENSITIVE, full_suite, workload_names)

WARMUP = 1200
MEASURE = 600


def quick(workload, core, ltp):
    return default_session().run(
        SimConfig(workload=workload, core=core, ltp=ltp,
                  warmup=WARMUP, measure=MEASURE),
        use_cache=False).stats


@pytest.mark.parametrize("name", workload_names())
def test_every_workload_runs_baseline(name):
    result = quick(name, CoreParams(), no_ltp())
    assert result["committed"] == MEASURE
    assert result["cycles"] > 0


@pytest.mark.parametrize("name", workload_names())
def test_every_workload_runs_proposed_ltp(name):
    result = quick(name, ltp_params(), proposed_ltp())
    assert result["committed"] == MEASURE


@pytest.mark.parametrize("name", workload_names())
def test_every_workload_runs_limit_ltp(name):
    core = CoreParams(iq_size=16, int_regs=None, fp_regs=None,
                      lq_size=None, sq_size=None)
    core.mem.mshrs = None
    result = quick(name, core, limit_ltp("nr+nu"))
    assert result["committed"] == MEASURE


def test_sensitive_suite_benefits_from_ltp_on_average():
    """Across the whole sensitive suite, LTP at IQ 16 must not lose to
    the no-LTP IQ 16 configuration, and must gain somewhere."""
    core = CoreParams(iq_size=16, int_regs=None, fp_regs=None,
                      lq_size=None, sq_size=None)
    core.mem.mshrs = None
    gains = []
    for workload in full_suite():
        if workload.category != MLP_SENSITIVE:
            continue
        base = quick(workload.name, core, no_ltp())["cycles"]
        with_ltp = quick(workload.name, core, limit_ltp("nr+nu"))["cycles"]
        gains.append(base / with_ltp)
        assert with_ltp <= base * 1.06, workload.name
    assert max(gains) > 1.2


def test_proposed_ltp_never_catastrophic_on_insensitive():
    """The paper reports a ~3% loss for insensitive code; allow a bit
    more slack on short traces but nothing pathological."""
    for workload in full_suite():
        if workload.category == MLP_SENSITIVE:
            continue
        base = quick(workload.name, ltp_params(), no_ltp())["cycles"]
        with_ltp = quick(workload.name, ltp_params(),
                         proposed_ltp())["cycles"]
        assert with_ltp <= base * 1.15, workload.name
