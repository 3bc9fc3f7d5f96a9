"""Unit tests for the LTP controller (decisions, wakeup policy, hooks)."""

import pytest

from repro.core.inflight import InFlightInst
from repro.isa.instructions import Instruction
from repro.isa.trace import DynInst
from repro.ltp.config import LTPConfig, limit_ltp, no_ltp, proposed_ltp
from repro.ltp.controller import NO_BOUNDARY, LTPController
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


def oracle_controller(mode="nu", **oracle_kwargs):
    oracle = make_oracle(100, **oracle_kwargs)
    config = LTPConfig(enabled=True, mode=mode, entries=8, ports=2,
                       classifier="oracle", oracle_granularity="dynamic",
                       ll_predictor="oracle", monitor="on")
    return LTPController(config, dram_latency=100, oracle=oracle)


def test_disabled_controller_always_dispatches():
    controller = LTPController(no_ltp(), dram_latency=100)
    record = make_record(0)
    controller.observe_rename(record)
    assert controller.decide(record, now=0) == "dispatch"


def test_non_urgent_parks_urgent_dispatches():
    controller = oracle_controller(urgent_seqs={1})
    non_urgent = make_record(0)
    urgent = make_record(1)
    controller.observe_rename(non_urgent)
    controller.observe_rename(urgent)
    assert controller.decide(non_urgent, now=0) == "park"
    assert controller.decide(urgent, now=0) == "dispatch"


def test_monitor_off_dispatches_everything():
    oracle = make_oracle(10)
    config = LTPConfig(enabled=True, mode="nu", classifier="oracle",
                       oracle_granularity="dynamic",
                       ll_predictor="oracle", monitor="auto")
    controller = LTPController(config, dram_latency=50, oracle=oracle)
    record = make_record(0)
    controller.observe_rename(record)
    assert controller.decide(record, now=0) == "dispatch"  # timer expired
    controller.on_dram_demand_access(0)
    record2 = make_record(1)
    controller.observe_rename(record2)
    assert controller.decide(record2, now=10) == "park"


def test_parked_bit_forces_descendants():
    controller = oracle_controller(urgent_seqs={1})
    parent = make_record(0)
    controller.observe_rename(parent)
    assert controller.decide(parent, now=0) == "park"
    controller.park(parent)

    child = make_record(1)     # urgent, would normally dispatch
    child.producer_records = (parent,)
    controller.observe_rename(child)
    assert controller.decide(child, now=0) == "park"
    assert child.park_reason == "parked-bit"


def test_memdep_forced_park():
    controller = oracle_controller(urgent_seqs={0})
    record = make_record(0)
    controller.observe_rename(record)
    assert controller.decide(record, now=0, memdep_forced=True) == "park"
    assert record.park_reason == "memdep"


def test_full_queue_stalls():
    controller = oracle_controller()
    for seq in range(8):
        record = make_record(seq)
        controller.observe_rename(record)
        controller.park(record)
    overflow = make_record(8)
    controller.observe_rename(overflow)
    assert controller.decide(overflow, now=0) == "stall"
    assert controller.park_stalls == 1


def test_nu_wakeup_boundary():
    controller = oracle_controller()
    records = [make_record(seq) for seq in range(4)]
    for r in records:
        controller.observe_rename(r)
        controller.park(r)
    # boundary at seq 2: only records 0 and 1 eligible, FIFO head first
    cand = controller.next_release(now=0, boundary_seq=2, force_seq=-1)
    assert cand.seq == 0
    controller.release(records[0])
    cand = controller.next_release(now=0, boundary_seq=2, force_seq=-1)
    assert cand.seq == 1
    controller.release(records[1])
    assert controller.next_release(now=0, boundary_seq=2,
                                   force_seq=-1) is None


def test_forced_release_of_rob_head():
    controller = oracle_controller()
    record = make_record(5)
    controller.observe_rename(record)
    controller.park(record)
    assert controller.next_release(0, boundary_seq=0,
                                   force_seq=-1) is None
    cand = controller.next_release(0, boundary_seq=0, force_seq=5)
    assert cand is record
    assert record.forced_release


def test_nr_mode_waits_for_tickets():
    controller = oracle_controller(mode="nr", ll_seqs={0}, nr_seqs={1})
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    controller.observe_rename(load)          # predicted LL: gets a ticket
    assert load.own_ticket is not None
    assert controller.decide(load, now=0) == "dispatch"  # load itself ready

    child = make_record(1)
    child.producer_records = (load, None)
    controller.observe_rename(child)
    assert child.tickets == {load.own_ticket}
    assert controller.decide(child, now=0) == "park"
    controller.park(child)

    # not eligible while the ticket is live
    assert controller.next_release(0, NO_BOUNDARY, -1) is None
    controller.on_tag_known(load)
    assert load.own_ticket is None
    assert controller.next_release(0, NO_BOUNDARY, -1) is child


def test_drain_when_disabled():
    oracle = make_oracle(10)
    config = LTPConfig(enabled=True, mode="nu", classifier="oracle",
                       oracle_granularity="dynamic", ll_predictor="oracle",
                       monitor="auto")
    controller = LTPController(config, dram_latency=10, oracle=oracle)
    controller.on_dram_demand_access(0)      # enabled until cycle 10
    record = make_record(0)
    controller.observe_rename(record)
    controller.park(record)
    # after the timer expires, parked work drains regardless of boundary
    cand = controller.next_release(now=50, boundary_seq=0, force_seq=-1)
    assert cand is record


def test_oracle_classifier_required():
    config = LTPConfig(enabled=True, classifier="oracle")
    with pytest.raises(ValueError):
        LTPController(config, dram_latency=100, oracle=None)


def test_predictor_updates_on_load_complete():
    config = proposed_ltp()
    controller = LTPController(config, dram_latency=100)
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",), pc=7)
    for _ in range(8):
        controller.on_load_complete(load, was_long_latency=True)
    probe = make_record(1, opcode="ld", dst="r1", srcs=("r2",), pc=7)
    assert controller.predict_long_latency(probe)


def test_commit_hook_inserts_uit():
    config = proposed_ltp()
    controller = LTPController(config, dram_latency=100)
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",), pc=42)
    load.actual_ll = True
    controller.on_commit(load)
    assert controller.classifier.uit.contains(42)


def test_div_predicted_long_latency():
    controller = oracle_controller(mode="nr")
    div = make_record(3, opcode="div", dst="r1", srcs=("r2", "r3"))
    assert controller.predict_long_latency(div)


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
