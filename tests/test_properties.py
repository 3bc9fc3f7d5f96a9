"""Property-based tests (hypothesis) for core data structures/invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memory.cache import Cache
from repro.memory.dram import DRAMChannel
from repro.ltp.queue import LTPQueue
from repro.ltp.tickets import TicketPool
from repro.ltp.uit import UrgentInstructionTable
from repro.core.regfile import RegisterFile
from repro.isa.assembler import assemble
from repro.isa.executor import Executor


# --------------------------------------------------------------- cache
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=300))
@settings(max_examples=60, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(blocks):
    cache = Cache("t", size_bytes=8 * 64, ways=2)  # 4 sets x 2 ways
    for block in blocks:
        cache.insert(block)
        assert cache.occupancy() <= 8
    # every most-recently-inserted block per set is present
    for block in blocks[-1:]:
        assert cache.probe(block)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=200))
@settings(max_examples=60, deadline=None)
def test_cache_insert_then_lookup_hits(blocks):
    cache = Cache("t", size_bytes=64 * 64, ways=8)
    for block in blocks:
        cache.insert(block)
        assert cache.lookup(block)


# ------------------------------------------------------------ register
@given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1,
                max_size=400))
@settings(max_examples=60, deadline=None)
def test_regfile_conservation(ops):
    capacity = 16
    rf = RegisterFile(int_regs=capacity, fp_regs=capacity)
    live = 0
    for op in ops:
        if op == "alloc" and rf.can_allocate("int"):
            rf.allocate("int")
            live += 1
        elif op == "free" and live > 0:
            rf.release("int")
            live -= 1
        assert rf.free("int") + live == capacity
        assert 0 <= rf.free("int") <= capacity


# ---------------------------------------------------------------- UIT
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=300))
@settings(max_examples=60, deadline=None)
def test_uit_occupancy_bounded(pcs):
    uit = UrgentInstructionTable(size=32, ways=4)
    for pc in pcs:
        uit.insert(pc)
        assert uit.occupancy() <= 32
        assert uit.contains(pc)


# -------------------------------------------------------------- tickets
@given(st.lists(st.booleans(), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_ticket_pool_never_exceeds_capacity(ops):
    pool = TicketPool(capacity=8)
    live = []
    for allocate in ops:
        if allocate:
            ticket = pool.allocate()
            if ticket is not None:
                assert ticket not in live
                live.append(ticket)
        elif live:
            pool.release(live.pop())
        assert pool.live_count == len(live) <= 8


# ------------------------------------------------------------ LTP queue
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                max_size=200))
@settings(max_examples=60, deadline=None)
def test_ltp_fifo_releases_in_seq_order(ops):
    from tests.test_ltp_structures import make_record
    queue = LTPQueue(entries=None, fifo_only=True)
    seq = 0
    released = []
    for op in ops:
        if op == 0:
            record = make_record(seq)
            seq += 1
            queue.push(record)
        elif len(queue):
            head = queue.head()
            queue.remove(head)
            released.append(head.seq)
    assert released == sorted(released)


# ---------------------------------------------------------------- DRAM
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=100))
@settings(max_examples=60, deadline=None)
def test_dram_monotonic_starts(cycles):
    dram = DRAMChannel(latency=100, issue_interval=4)
    last_start = -1
    for cycle in sorted(cycles):
        timing = dram.schedule(cycle)
        assert timing.start_cycle >= cycle
        assert timing.start_cycle >= last_start + 4 or last_start < 0
        last_start = timing.start_cycle


# ------------------------------------------------------------- executor
@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                max_size=20), st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_executor_dataflow_producers_consistent(values, extra):
    """Every recorded producer must be the true last writer."""
    lines = []
    for i, value in enumerate(values):
        lines.append(f"li r{1 + (i % 8)}, {value}")
        lines.append(f"add r{1 + ((i + 1) % 8)}, r{1 + (i % 8)}, "
                     f"r{1 + ((i + 2) % 8)}")
    lines.append("halt")
    program = assemble("\n".join(lines))
    trace = list(Executor(program).run(1000))
    last_writer = {}
    for dyn in trace:
        for reg, producer in zip(dyn.inst.srcs, dyn.src_producers):
            assert last_writer.get(reg, -1) == producer
        if dyn.inst.dst is not None:
            last_writer[dyn.inst.dst] = dyn.seq


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=30, deadline=None)
def test_executor_loop_iteration_count(iters, start_reg):
    reg = f"r{start_reg + 1}"
    program = assemble(f"""
        li {reg}, 0
        li r9, {iters}
    loop:
        addi {reg}, {reg}, 1
        blt {reg}, r9, loop
        halt
    """)
    executor = Executor(program)
    trace = list(executor.run(10_000))
    assert executor.regs[reg] == iters
    body = [d for d in trace if d.pc == 2]
    assert len(body) == iters


# -------------------------------------------------------------- oracle
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=20, deadline=None)
def test_oracle_urgent_ancestor_closure_random_chain(n, seed_base)-> None:
    """Random dependence chains: urgent closed under ancestors."""
    import random
    from repro.ltp.oracle import annotate_trace
    rng = random.Random(seed_base)
    lines = ["li r1, 0x40000000", "li r2, 0"]
    for i in range(n):
        choice = rng.randrange(3)
        reg = f"r{3 + rng.randrange(6)}"
        src = f"r{3 + rng.randrange(6)}"
        if choice == 0:
            lines.append(f"add {reg}, {src}, r2")
        elif choice == 1:
            lines.append("addi r2, r2, 64")
        else:
            lines.append("slli r4, r2, 14")
            lines.append("add r4, r1, r4")
            lines.append(f"ld {reg}, r4, 0")
    lines.append("halt")
    trace = list(Executor(assemble("\n".join(lines))).run(5000))
    oracle = annotate_trace(trace)
    for i, dyn in enumerate(trace):
        if oracle.urgent[i]:
            for producer in dyn.src_producers:
                if producer >= 0:
                    assert oracle.urgent[producer]
