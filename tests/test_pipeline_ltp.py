"""Pipeline + LTP integration tests."""


from repro.core.params import CoreParams
from repro.core.pipeline import Pipeline
from repro.ltp.config import LTPConfig, limit_ltp, no_ltp
from repro.policies import LTPPolicy
from repro.ltp.oracle import annotate_trace

from tests.conftest import make_trace

MISS_LOOP = """
    li r1, 0x10000000       # A base (sequential, warms quickly)
    li r2, 0x40000000       # B base (always cold)
    li r3, 0
    li r7, 60
loop:
    ldx  r4, r1, r3         # A[j]  (urgent)
    slli r5, r4, 20
    add  r5, r2, r5
    ld   r6, r5, 0          # B[..] (cold DRAM miss)
    add  r8, r6, r6         # miss consumer      (NU + NR)
    add  r9, r9, r3         # independent clutter (NU + R)
    add  r10, r10, r9       # clutter             (NU + R)
    addi r3, r3, 1
    blt  r3, r7, loop
    halt
"""


def miss_trace(iters=60):
    memory = {0x10000000 + 8 * i: i for i in range(iters + 1)}
    asm = MISS_LOOP.replace("li r7, 60", f"li r7, {iters}")
    return make_trace(asm, max_insts=10 * iters + 10, memory=memory)


def run_with_ltp(trace, core=None, ltp=None, window=64):
    core = core or CoreParams()
    ltp = ltp or no_ltp()
    oracle = annotate_trace(trace, core.mem, window=window)
    policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
    pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
    return pipeline, pipeline.run()


def small_core(**overrides):
    params = CoreParams(iq_size=8, int_regs=None, fp_regs=None,
                        lq_size=None, sq_size=None, **overrides)
    params.mem.mshrs = None
    return params


def test_ltp_parks_non_urgent():
    trace = miss_trace()
    ltp = limit_ltp("nu").but(monitor="on", park_loads=False,
                              park_stores=False)
    pipeline, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.ltp_parked > 0
    assert stats.ltp_released == stats.ltp_parked
    assert stats.committed == len(trace)


def test_ltp_improves_small_iq_performance():
    trace = miss_trace()
    _, stats_no = run_with_ltp(trace, small_core(), no_ltp())
    ltp = limit_ltp("nu").but(monitor="on", park_loads=False,
                              park_stores=False)
    _, stats_ltp = run_with_ltp(trace, small_core(), ltp)
    assert stats_ltp.cycles < stats_no.cycles


def test_ltp_recovers_most_of_large_iq_performance():
    """The headline claim: small IQ + LTP approaches a large IQ,
    recovering most of the gap from the small-IQ baseline."""
    trace = miss_trace()
    big = small_core()
    big.iq_size = 256
    _, stats_big = run_with_ltp(trace, big, no_ltp())
    _, stats_small = run_with_ltp(trace, small_core(), no_ltp())
    ltp = limit_ltp("nr+nu").but(monitor="on", park_loads=False,
                                 park_stores=False)
    _, stats_ltp = run_with_ltp(trace, small_core(), ltp)
    assert stats_big.cycles < stats_small.cycles
    gap = stats_small.cycles - stats_big.cycles
    recovered = stats_small.cycles - stats_ltp.cycles
    assert recovered >= 0.5 * gap, (
        f"big={stats_big.cycles} small={stats_small.cycles} "
        f"ltp={stats_ltp.cycles}")


def test_parked_instructions_commit_in_order():
    trace = miss_trace(iters=30)
    ltp = limit_ltp("nu").but(monitor="on")
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.committed == len(trace)


def test_no_instruction_lost_with_tiny_ltp():
    """A 4-entry LTP forces park stalls but must stay correct."""
    trace = miss_trace(iters=30)
    ltp = limit_ltp("nu").but(entries=4, ports=1, monitor="on",
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.committed == len(trace)


def test_ltp_ports_limit_release_rate():
    trace = miss_trace()
    slow = limit_ltp("nu").but(entries=128, ports=1, monitor="on",
                               park_loads=False, park_stores=False)
    fast = limit_ltp("nu").but(entries=128, ports=8, monitor="on",
                               park_loads=False, park_stores=False)
    _, stats_slow = run_with_ltp(trace, small_core(), slow)
    _, stats_fast = run_with_ltp(trace, small_core(), fast)
    assert stats_fast.cycles <= stats_slow.cycles


def test_nr_mode_tickets_flow():
    trace = miss_trace()
    ltp = limit_ltp("nr").but(monitor="on", tickets=64,
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.classified_non_ready > 0
    assert stats.ltp_parked > 0
    assert stats.committed == len(trace)


def test_monitor_keeps_ltp_off_for_compute():
    trace = make_trace("""
        li r1, 0
        li r2, 300
    loop:
        addi r1, r1, 1
        add  r3, r1, r1
        xor  r4, r3, r1
        blt r1, r2, loop
        halt
    """, max_insts=600)
    ltp = limit_ltp("nu").but(monitor="auto", park_loads=False,
                              park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.ltp_parked == 0
    assert stats.ltp_enabled_cycles < stats.cycles * 0.1


def test_ltp_occupancy_stats_tracked():
    trace = miss_trace()
    ltp = limit_ltp("nu").but(monitor="on", park_loads=False,
                              park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.average_occupancy("ltp") > 0
    assert stats.occupancies["ltp"].peak > 0


def test_online_classifier_end_to_end():
    """The practical design (UIT + parked-bit) stays correct and parks."""
    trace = miss_trace(iters=80)
    core = small_core()
    ltp = LTPConfig(enabled=True, mode="nu", entries=64, ports=4,
                    classifier="online", uit_size=256,
                    ll_predictor="twolevel", monitor="on").validate()
    policy = LTPPolicy(ltp, core.mem.dram_latency)
    pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
    stats = pipeline.run()
    assert stats.committed == len(trace)
    assert stats.ltp_parked > 0


def test_forced_release_unblocks_rob_head():
    trace = miss_trace(iters=30)
    # 1-port tiny-boundary setup exercises the forced-release path
    ltp = limit_ltp("nu").but(entries=None, ports=1, monitor="on",
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(rob_size=32), ltp)
    assert stats.committed == len(trace)


def test_invariant_iq_never_waits_on_parked():
    """No instruction in the IQ may wait on a value still parked."""
    trace = miss_trace()
    core = small_core()
    ltp = limit_ltp("nu").but(monitor="on", park_loads=False,
                              park_stores=False)
    oracle = annotate_trace(trace, core.mem, window=64)
    policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
    pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)

    violations = []
    original_insert = pipeline.iq.insert

    def checked_insert(record):
        for producer in record.producer_records:
            if producer is not None and producer.parked:
                violations.append((record.seq, producer.seq))
        original_insert(record)

    pipeline.iq.insert = checked_insert
    pipeline.run()
    assert violations == []
