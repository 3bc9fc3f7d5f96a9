"""Tests for the WIB-style configuration and wakeup-policy ablation."""

import pytest

from repro.core.pipeline import Pipeline
from repro.ltp.config import LTPConfig, limit_ltp, wib_ltp
from repro.policies import LTPPolicy
from repro.ltp.oracle import annotate_trace

from tests.test_pipeline_ltp import miss_trace, run_with_ltp, small_core


def test_wib_config_shape():
    config = wib_ltp()
    assert not config.defer_registers
    assert config.mode == "nr"
    assert config.enabled


def test_wakeup_policy_validation():
    with pytest.raises(ValueError):
        LTPConfig(wakeup_policy="random").validate()
    LTPConfig(wakeup_policy="eager").validate()


def test_wib_parks_and_completes():
    trace = miss_trace()
    _, stats = run_with_ltp(trace, small_core(), wib_ltp())
    assert stats.ltp_parked > 0
    assert stats.committed == len(trace)


def test_wib_allocates_registers_at_rename():
    """Unlike LTP, WIB-parked instructions hold registers while parked."""
    trace = miss_trace(iters=40)
    core = small_core()
    oracle = annotate_trace(trace, core.mem, window=64)

    def run(ltp):
        policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
        pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
        return pipeline.run()

    wib_stats = run(wib_ltp())
    ltp_stats = run(limit_ltp("nr").but(monitor="on", park_loads=False,
                                        park_stores=False))
    # with deferred allocation, average register occupancy must be lower
    wib_regs = (wib_stats.average_occupancy("rf_int")
                + wib_stats.average_occupancy("rf_fp"))
    ltp_regs = (ltp_stats.average_occupancy("rf_int")
                + ltp_stats.average_occupancy("rf_fp"))
    assert ltp_regs < wib_regs


def test_wib_relieves_iq_pressure():
    trace = miss_trace()
    _, stats_no = run_with_ltp(trace, small_core(),
                               ltp=None)
    _, stats_wib = run_with_ltp(trace, small_core(), wib_ltp())
    assert stats_wib.cycles <= stats_no.cycles


def test_eager_wakeup_still_correct():
    trace = miss_trace()
    ltp = limit_ltp("nu").but(monitor="on", wakeup_policy="eager",
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.committed == len(trace)
    assert stats.ltp_parked > 0


def test_late_wakeup_wins_at_scarce_registers():
    """Section 3.2's argument: eager wakeup re-allocates registers long
    before commit, so with a small register file it loses performance."""
    trace = miss_trace(iters=60)
    core = small_core()
    core.iq_size = None
    core.int_regs = 24
    core.fp_regs = 24
    base = limit_ltp("nu").but(monitor="on", park_loads=False,
                               park_stores=False)
    _, late = run_with_ltp(trace, core, base)
    _, eager = run_with_ltp(trace, core, base.but(wakeup_policy="eager"))
    assert late.cycles <= eager.cycles
