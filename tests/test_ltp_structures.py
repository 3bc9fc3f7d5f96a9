"""Unit tests for UIT, tickets, queue, monitor and hit/miss predictor."""

import random

import pytest

from repro.core.inflight import InFlightInst
from repro.isa.instructions import Instruction
from repro.isa.trace import DynInst
from repro.ltp.config import LTPConfig
from repro.policies import LTPPolicy
from repro.ltp.monitor import DramTimerMonitor
from repro.ltp.predictor import HitMissPredictor
from repro.ltp.queue import LTPQueue
from repro.ltp.tickets import TicketPool, TicketTracker
from repro.ltp.uit import UrgentInstructionTable


def make_record(seq, opcode="add", dst="r1", srcs=("r2", "r3"), imm=0):
    inst = Instruction(opcode=opcode, dst=dst, srcs=srcs, imm=imm)
    dyn = DynInst(seq=seq, pc=seq, inst=inst,
                  src_producers=tuple(-1 for _ in srcs), addr=None,
                  store_value=None, taken=None, next_pc=seq + 1)
    return InFlightInst(dyn)


# ---------------------------------------------------------------- UIT
def test_uit_insert_and_lookup():
    uit = UrgentInstructionTable(size=16, ways=4)
    assert not uit.contains(100)
    uit.insert(100)
    assert uit.contains(100)


def test_uit_lru_within_set():
    uit = UrgentInstructionTable(size=8, ways=2)  # 4 sets
    # PCs 0, 4, 8 all map to set 0 with 2 ways
    uit.insert(0)
    uit.insert(4)
    assert uit.contains(0)      # refresh 0
    uit.insert(8)               # evicts 4
    assert uit.contains(0)
    assert not uit.contains(4)
    assert uit.contains(8)


def test_uit_unlimited():
    uit = UrgentInstructionTable(size=None)
    for pc in range(10000):
        uit.insert(pc)
    assert uit.occupancy() == 10000
    assert uit.contains(9999)


def test_uit_bad_geometry():
    with pytest.raises(ValueError):
        UrgentInstructionTable(size=10, ways=4)


def test_uit_counts_activity():
    uit = UrgentInstructionTable(size=16, ways=4)
    uit.contains(1)
    uit.insert(1)
    assert uit.lookups == 1 and uit.inserts == 1


# ------------------------------------------------------------- tickets
def test_ticket_pool_allocate_release():
    pool = TicketPool(capacity=2)
    t0 = pool.allocate()
    t1 = pool.allocate()
    assert pool.allocate() is None
    assert pool.exhausted == 1
    pool.release(t0)
    assert pool.allocate() is not None
    assert t1 is not None


def test_ticket_pool_unlimited():
    pool = TicketPool(capacity=None)
    tickets = [pool.allocate() for _ in range(100)]
    assert None not in tickets
    assert len(set(tickets)) == 100


def test_ticket_pool_double_release():
    pool = TicketPool(capacity=4)
    ticket = pool.allocate()
    pool.release(ticket)
    with pytest.raises(RuntimeError):
        pool.release(ticket)


def test_ticket_inheritance_and_clear():
    tracker = TicketTracker(TicketPool(capacity=8))
    producer = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    ticket = tracker.grant(producer)
    assert producer.own_ticket == ticket

    consumer = make_record(1)
    consumer.producer_records = ()
    tracker.inherit(consumer, [producer])
    assert consumer.tickets == {ticket}

    holders = tracker.clear(ticket)
    assert consumer in holders
    assert consumer.tickets == set()


def test_ticket_inherit_transitive():
    tracker = TicketTracker(TicketPool(capacity=8))
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    tracker.grant(load)
    mid = make_record(1)
    tracker.inherit(mid, [load])
    leaf = make_record(2)
    tracker.inherit(leaf, [mid])
    assert leaf.tickets == mid.tickets == {load.own_ticket}


def test_ticket_done_producer_ignored():
    tracker = TicketTracker(TicketPool(capacity=8))
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    tracker.grant(load)
    load.done = True
    consumer = make_record(1)
    tracker.inherit(consumer, [load])
    assert consumer.tickets == set()


# --------------------------------------------------------------- queue
def test_queue_fifo_release_order():
    queue = LTPQueue(entries=4, fifo_only=True)
    records = [make_record(i) for i in range(3)]
    for r in records:
        queue.push(r)
    assert queue.head() is records[0]       # head only in FIFO mode
    assert queue.next_release(-1) is records[0]
    queue.remove(records[0])
    assert not records[0].parked


def test_queue_fifo_cannot_release_middle():
    queue = LTPQueue(entries=4, fifo_only=True)
    a, b = make_record(0), make_record(1)
    queue.push(a)
    queue.push(b)
    with pytest.raises(RuntimeError):
        queue.remove(b)


def test_queue_scan_mode_releases_any_eligible():
    queue = LTPQueue(entries=8, fifo_only=False)
    records = [make_record(i) for i in range(4)]
    for r in records:
        queue.push(r)
    queue.mark_ready(records[3])
    queue.mark_ready(records[1])
    assert queue.next_release(-1) is records[1]   # oldest ready first
    queue.remove(records[3])                      # any record may leave
    assert len(queue) == 3
    assert queue.next_release(-1) is records[1]
    queue.remove(records[1])
    assert queue.next_release(-1) is None         # 3 left the heap too


def test_queue_capacity():
    queue = LTPQueue(entries=1, fifo_only=True)
    queue.push(make_record(0))
    assert queue.full
    with pytest.raises(RuntimeError):
        queue.push(make_record(1))


def test_queue_type_counters():
    queue = LTPQueue(entries=8, fifo_only=False)
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    store = make_record(1, opcode="st", dst=None, srcs=("r2", "r3"))
    alu = make_record(2)
    for r in (load, store, alu):
        queue.push(r)
    assert queue.parked_loads == 1
    assert queue.parked_stores == 1
    assert queue.parked_with_dst == 2   # load + alu
    queue.remove(load)
    assert queue.parked_loads == 0


# -------------------------------------------------------------- monitor
def test_monitor_auto_enable_and_expire():
    mon = DramTimerMonitor(dram_latency=100, mode="auto")
    assert not mon.is_enabled(0)
    mon.touch(10)
    assert mon.is_enabled(10)
    assert mon.is_enabled(109)
    assert not mon.is_enabled(110)


def test_monitor_retouch_extends():
    mon = DramTimerMonitor(dram_latency=100, mode="auto")
    mon.touch(0)
    mon.touch(50)
    assert mon.is_enabled(149)
    assert not mon.is_enabled(150)


def test_monitor_enabled_span():
    mon = DramTimerMonitor(dram_latency=100, mode="auto")
    mon.touch(0)
    assert mon.enabled_span(0, 100) == 100
    assert mon.enabled_span(50, 150) == 50
    assert mon.enabled_span(100, 200) == 0


def test_monitor_forced_modes():
    on = DramTimerMonitor(dram_latency=10, mode="on")
    off = DramTimerMonitor(dram_latency=10, mode="off")
    assert on.is_enabled(0) and on.enabled_span(0, 5) == 5
    assert not off.is_enabled(0) and off.enabled_span(0, 5) == 0


@pytest.mark.parametrize("mode", ["auto", "on", "off"])
def test_monitor_enabled_cycles_match_per_cycle_sum(mode):
    """The count integrated at each touch (what the kernel reads at run
    end) is the per-cycle ``is_enabled`` sum of a run that touches the
    monitor at those cycles, each cycle's touches before its check.

    (Seeded draws, not Hypothesis: another property test imports this
    module's helpers from inside its own ``@given``.)"""
    rng = random.Random(mode)
    for _ in range(200):
        latency = rng.randint(1, 40)
        touches = sorted(rng.randrange(300)
                         for _ in range(rng.randrange(30)))
        end = (touches[-1] if touches else 0) + rng.randrange(60)
        mon = DramTimerMonitor(dram_latency=latency, mode=mode)
        enabled_at = mon.predicate()
        pending = list(touches)
        per_cycle = 0
        for cycle in range(end):
            while pending and pending[0] == cycle:
                mon.touch(pending.pop(0))
            assert enabled_at(cycle) == mon.is_enabled(cycle)
            per_cycle += mon.is_enabled(cycle)
        for cycle in pending:   # touches at the end cycle itself
            mon.touch(cycle)
        assert mon.enabled_cycles(end) == per_cycle, (latency, touches)


def test_enabled_controller_with_monitor_off_is_never_enabled():
    """``touch`` still moves the timer of an "off" monitor, so the
    shortcuts must go through the mode, not read the timer."""
    config = LTPConfig(enabled=True, mode="nu", monitor="off")
    policy = LTPPolicy(config, dram_latency=50)
    for now in (0, 10, 70):
        policy.on_dram_demand_access(now)
    monitor = policy.monitor
    assert monitor.expiry == 120 and monitor.touches == 3
    assert not any(policy._enabled_at(now) for now in range(130))
    assert not any(policy.is_enabled(now) for now in range(130))
    assert monitor.enabled_cycles(100) == 0
    assert sum(monitor.enabled_span(now, now + 1)
               for now in range(100)) == 0


def test_monitor_validation():
    with pytest.raises(ValueError):
        DramTimerMonitor(dram_latency=10, mode="sometimes")
    with pytest.raises(ValueError):
        DramTimerMonitor(dram_latency=0)


# ----------------------------------------------------------- predictor
def test_hitmiss_learns_steady_miss():
    predictor = HitMissPredictor()
    for _ in range(8):
        predictor.update(0x10, was_long_latency=True)
    assert predictor.predict_long_latency(0x10)


def test_hitmiss_learns_steady_hit():
    predictor = HitMissPredictor()
    for _ in range(8):
        predictor.update(0x10, was_long_latency=False)
    assert not predictor.predict_long_latency(0x10)


def test_hitmiss_cold_predicts_hit():
    predictor = HitMissPredictor()
    assert not predictor.predict_long_latency(0x123)


def test_hitmiss_pattern_history():
    predictor = HitMissPredictor()
    pattern = [True, False, True, False]
    for _ in range(64):
        for outcome in pattern:
            predictor.update(0x44, outcome)
    # alternating history should give distinct table entries; check the
    # predictor is at least trainable on the alternation
    hits = 0
    for outcome in pattern * 8:
        if predictor.predict_long_latency(0x44) == outcome:
            hits += 1
        predictor.update(0x44, outcome)
    assert hits >= 16


def test_hitmiss_validation():
    with pytest.raises(ValueError):
        HitMissPredictor(table_bits=2)
