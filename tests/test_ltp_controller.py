"""Unit tests for the LTP policy (decisions, wakeup policy, hooks)."""

import pytest

from repro.core.inflight import InFlightInst
from repro.isa.instructions import Instruction
from repro.isa.trace import DynInst
from repro.ltp.config import LTPConfig, limit_ltp, no_ltp, proposed_ltp
from repro.ltp.queue import NO_BOUNDARY
from repro.policies import LTPPolicy
from repro.ltp.oracle import OracleInfo


def make_record(seq, opcode="add", dst="r1", srcs=("r2", "r3"), pc=None):
    inst = Instruction(opcode=opcode, dst=dst, srcs=srcs)
    dyn = DynInst(seq=seq, pc=pc if pc is not None else seq, inst=inst,
                  src_producers=tuple(-1 for _ in srcs), addr=None,
                  store_value=None, taken=None, next_pc=seq + 1)
    record = InFlightInst(dyn)
    record.producer_records = tuple(None for _ in srcs)
    return record


def make_oracle(n, urgent_seqs=(), ll_seqs=(), nr_seqs=(), urgent_pcs=()):
    return OracleInfo(
        levels=[None] * n,
        long_latency=[i in ll_seqs for i in range(n)],
        urgent=[i in urgent_seqs for i in range(n)],
        non_ready=[i in nr_seqs for i in range(n)],
        urgent_pcs=set(urgent_pcs),
    )


def oracle_policy(mode="nu", **oracle_kwargs):
    oracle = make_oracle(100, **oracle_kwargs)
    config = LTPConfig(enabled=True, mode=mode, entries=8, ports=2,
                       classifier="oracle", oracle_granularity="dynamic",
                       ll_predictor="oracle", monitor="on")
    return LTPPolicy(config, dram_latency=100, oracle=oracle)


def test_disabled_controller_always_dispatches():
    policy = LTPPolicy(no_ltp(), dram_latency=100)
    record = make_record(0)
    policy.observe_rename(record)
    assert policy.may_allocate(record, now=0) == "dispatch"


def test_non_urgent_parks_urgent_dispatches():
    policy = oracle_policy(urgent_seqs={1})
    non_urgent = make_record(0)
    urgent = make_record(1)
    policy.observe_rename(non_urgent)
    policy.observe_rename(urgent)
    assert policy.may_allocate(non_urgent, now=0) == "park"
    assert policy.may_allocate(urgent, now=0) == "dispatch"


def test_monitor_off_dispatches_everything():
    oracle = make_oracle(10)
    config = LTPConfig(enabled=True, mode="nu", classifier="oracle",
                       oracle_granularity="dynamic",
                       ll_predictor="oracle", monitor="auto")
    policy = LTPPolicy(config, dram_latency=50, oracle=oracle)
    record = make_record(0)
    policy.observe_rename(record)
    assert policy.may_allocate(record, now=0) == "dispatch"  # timer expired
    policy.on_dram_demand_access(0)
    record2 = make_record(1)
    policy.observe_rename(record2)
    assert policy.may_allocate(record2, now=10) == "park"


def test_parked_bit_forces_descendants():
    policy = oracle_policy(urgent_seqs={1})
    parent = make_record(0)
    policy.observe_rename(parent)
    assert policy.may_allocate(parent, now=0) == "park"
    policy.park(parent)

    child = make_record(1)     # urgent, would normally dispatch
    child.producer_records = (parent,)
    policy.observe_rename(child)
    assert policy.may_allocate(child, now=0) == "park"
    assert child.park_reason == "parked-bit"


def test_memdep_forced_park():
    policy = oracle_policy(urgent_seqs={0})
    record = make_record(0)
    policy.observe_rename(record)
    assert policy.may_allocate(record, now=0, memdep_forced=True) == "park"
    assert record.park_reason == "memdep"


def test_full_queue_stalls():
    policy = oracle_policy()
    for seq in range(8):
        record = make_record(seq)
        policy.observe_rename(record)
        policy.park(record)
    overflow = make_record(8)
    policy.observe_rename(overflow)
    assert policy.may_allocate(overflow, now=0) == "stall"
    assert policy.park_stalls == 1


def test_nu_wakeup_boundary():
    policy = oracle_policy()
    records = [make_record(seq) for seq in range(4)]
    for r in records:
        policy.observe_rename(r)
        policy.park(r)
    # boundary at seq 2: only records 0 and 1 eligible, FIFO head first
    cand = policy.on_release_scan(now=0, boundary_seq=2, force_seq=-1)
    assert cand.seq == 0
    policy.release(records[0])
    cand = policy.on_release_scan(now=0, boundary_seq=2, force_seq=-1)
    assert cand.seq == 1
    policy.release(records[1])
    assert policy.on_release_scan(now=0, boundary_seq=2,
                                   force_seq=-1) is None


def test_forced_release_of_rob_head():
    policy = oracle_policy()
    record = make_record(5)
    policy.observe_rename(record)
    policy.park(record)
    assert policy.on_release_scan(0, boundary_seq=0,
                                   force_seq=-1) is None
    cand = policy.on_release_scan(0, boundary_seq=0, force_seq=5)
    assert cand is record
    assert record.forced_release


def test_nr_mode_waits_for_tickets():
    policy = oracle_policy(mode="nr", ll_seqs={0}, nr_seqs={1})
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    policy.observe_rename(load)          # predicted LL: gets a ticket
    assert load.own_ticket is not None
    assert policy.may_allocate(load, now=0) == "dispatch"  # load itself ready

    child = make_record(1)
    child.producer_records = (load, None)
    policy.observe_rename(child)
    assert child.tickets == {load.own_ticket}
    assert policy.may_allocate(child, now=0) == "park"
    policy.park(child)

    # not eligible while the ticket is live
    assert policy.on_release_scan(0, NO_BOUNDARY, -1) is None
    policy.on_tag_known(load)
    assert load.own_ticket is None
    assert policy.on_release_scan(0, NO_BOUNDARY, -1) is child


def test_drain_when_disabled():
    oracle = make_oracle(10)
    config = LTPConfig(enabled=True, mode="nu", classifier="oracle",
                       oracle_granularity="dynamic", ll_predictor="oracle",
                       monitor="auto")
    policy = LTPPolicy(config, dram_latency=10, oracle=oracle)
    policy.on_dram_demand_access(0)      # enabled until cycle 10
    record = make_record(0)
    policy.observe_rename(record)
    policy.park(record)
    # after the timer expires, parked work drains regardless of boundary
    cand = policy.on_release_scan(now=50, boundary_seq=0, force_seq=-1)
    assert cand is record


def test_oracle_classifier_required():
    config = LTPConfig(enabled=True, classifier="oracle")
    with pytest.raises(ValueError):
        LTPPolicy(config, dram_latency=100, oracle=None)


def test_predictor_updates_on_load_complete():
    config = proposed_ltp()
    policy = LTPPolicy(config, dram_latency=100)
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",), pc=7)
    for _ in range(8):
        policy.on_load_complete(load, was_long_latency=True)
    probe = make_record(1, opcode="ld", dst="r1", srcs=("r2",), pc=7)
    assert policy.predict_long_latency(probe)


def test_commit_hook_inserts_uit():
    config = proposed_ltp()
    policy = LTPPolicy(config, dram_latency=100)
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",), pc=42)
    load.actual_ll = True
    policy.on_commit(load)
    assert policy.classifier.uit.contains(42)


def test_div_predicted_long_latency():
    policy = oracle_policy(mode="nr")
    div = make_record(3, opcode="div", dst="r1", srcs=("r2", "r3"))
    assert policy.predict_long_latency(div)


def test_config_validation():
    with pytest.raises(ValueError):
        LTPConfig(mode="bogus").validate()
    with pytest.raises(ValueError):
        LTPConfig(ports=0).validate()
    with pytest.raises(ValueError):
        LTPConfig(entries=0).validate()
    with pytest.raises(ValueError):
        LTPConfig(monitor="never").validate()


def test_config_factories():
    assert not no_ltp().enabled
    prop = proposed_ltp()
    assert prop.entries == 128 and prop.ports == 4 and prop.mode == "nu"
    lim = limit_ltp("nr+nu")
    assert lim.entries is None and lim.classifier == "oracle"
    assert lim.parks_nu and lim.parks_nr


def test_config_but():
    config = proposed_ltp().but(entries=64)
    assert config.entries == 64
    assert proposed_ltp().entries == 128
