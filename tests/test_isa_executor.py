"""Unit tests for the functional executor (architectural semantics)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.executor import (ExecutionError, Executor, Memory, WordImage,
                                trace_of)

from tests.conftest import make_trace


def run_regs(asm, max_insts=500, **kwargs):
    program = assemble(asm)
    executor = Executor(program, **kwargs)
    list(executor.run(max_insts))
    return executor


def test_memory_word_granularity():
    mem = Memory()
    mem.store(0x100, 42)
    assert mem.load(0x100) == 42
    assert mem.load(0x104) == 42  # same 8-byte word
    assert mem.load(0x108) == 0


def test_memory_negative_address_raises():
    mem = Memory()
    with pytest.raises(ExecutionError):
        mem.load(-8)


def test_memory_image_is_word_aligned_and_wrapped_like_stores():
    image = {0x100: 3, 0x104: (1 << 64) + 5, 0x200: -1}
    bulk = Memory(image)
    stepped = Memory()
    for addr, value in image.items():
        stepped.store(addr, value)
    # the words {0x100: 5, 0x200: -1}, and nothing else
    probes = range(0xF8, 0x210, 4)
    expected = [5 if a // 8 == 0x20 else -1 if a // 8 == 0x40 else 0
                for a in probes]
    assert [bulk.load(a) for a in probes] == expected
    assert [stepped.load(a) for a in probes] == expected
    with pytest.raises(ExecutionError, match="0x-8"):
        Memory({0x100: 1, -8: 2, -16: 3})


@pytest.mark.parametrize("image, word_0x108", [
    ({0x100: 1, 0x108: 2}, 2),                              # normal form
    ({0x104: 1, 0x10C: 2}, 2),                              # misaligned
    ({0x100: 1, 0x108: 1 << 63}, -(1 << 63)),               # > 2**63-1
    ({0x100: 1, 0x108: -(1 << 63) - 1}, (1 << 63) - 1),     # < -2**63
])
def test_memory_leaves_a_callers_image_unmodified(image, word_0x108):
    before = dict(image)
    mem = Memory(image)
    mem.store(0x100, 7)
    mem.store(0x110, 8)
    assert image == before
    assert [mem.load(a) for a in (0x100, 0x108, 0x110)] == [7, word_0x108, 8]
    fresh = Memory(image)
    assert [fresh.load(a) for a in (0x100, 0x108, 0x110)] == [
        1, word_0x108, 0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-24, 0x140),
                          st.integers(-(1 << 66), 1 << 66)), max_size=24))
@example([(0x100, 1), (-8, 2)])                       # a negative address
@example([(0x104, 1), (0x10C, 2)])                    # misaligned keys
@example([(0x100, 1 << 63), (0x108, -(1 << 63) - 1)])  # wrapping
@example([(0x100, 1), (0x108, 2), (0x104, 3)])        # a later entry wins
def test_a_dict_image_loads_as_the_normalised_dict(entries):
    image = dict(entries)
    negative = [addr for addr in image if addr < 0]
    if negative:
        with pytest.raises(ExecutionError,
                           match=f"negative address 0x{negative[0]:x}$"):
            Memory(image)
        return
    # what the dict images were normalised to: each key aligned down to
    # its word, each value wrapped to signed 64 bits, a later entry
    # winning
    words = {addr - addr % 8: (value + (1 << 63)) % (1 << 64) - (1 << 63)
             for addr, value in image.items()}
    memory = Memory(image)
    assert [memory.load(addr) for addr in range(0, 0x150)] == [
        words.get(addr - addr % 8, 0) for addr in range(0, 0x150)]


def test_a_word_image_is_sorted_runs_that_read_zero_between_them():
    image = WordImage.join(WordImage([(0x40, [7, 8])]),
                           WordImage([(0x0, [1, -2, 3])]))
    assert [base for base, _ in image.runs] == [0x0, 0x40]
    assert dict(image) == {0x0: 1, 0x8: -2, 0x10: 3, 0x40: 7, 0x48: 8}
    assert [image.get(addr, 0) for addr in range(0, 0x58, 8)] == [
        1, -2, 3, 0, 0, 0, 0, 0, 7, 8, 0]
    assert 0x18 not in image and 0x4 not in image and len(image) == 5
    for runs in ([(0x4, [1])], [(-8, [1])], [(0, [1, 2]), (0x8, [3])]):
        with pytest.raises(ValueError):
            WordImage(runs)
    with pytest.raises(OverflowError):
        WordImage([(0, [1 << 63])])


def test_stores_over_a_shared_image_stay_in_their_executor():
    image = {0x1000: 5}
    program = assemble("""
        li r1, 0x1000
        ld r2, r1, 0
        addi r2, r2, 1
        st r2, r1, 0
        ld r3, r1, 0
        halt
    """)
    first = Executor(program, memory=Memory(image))
    list(first.run(10))
    second = Executor(program, memory=Memory(image))
    list(second.run(10))
    assert first.regs["r3"] == second.regs["r3"] == 6
    assert first.memory.load(0x1000) == 6
    assert image == {0x1000: 5}


def test_loads_read_out_of_range_values_back_wrapped():
    # a value beyond signed 64 bits reaches memory through a store or
    # through an image not in normal form; a load sees it wrapped
    memory = Memory({0x1008: 1 << 63, 0x1014: -(1 << 63) - 1})
    memory.store(0x1000, (1 << 64) + 5)
    ex = run_regs("""
        li r1, 0x1000
        ld r2, r1, 0
        ld r3, r1, 8
        li r4, 2
        ldx r5, r1, r4
        halt
    """, memory=memory)
    assert (ex.regs["r2"], ex.regs["r3"], ex.regs["r5"]) == (
        5, -(1 << 63), (1 << 63) - 1)


def test_fault_keeps_the_records_before_it_and_the_state_at_it():
    ex = Executor(assemble("""
        li r1, 8
        addi r1, r1, -16
        ld r2, r1, 0
        halt
    """))
    seen = []
    with pytest.raises(ExecutionError, match="negative address"):
        for dyn in ex.run(10):
            seen.append(dyn.pc)
    assert seen == [0, 1]
    assert (ex.pc, ex.seq, "r2" in ex.regs) == (2, 2, False)
    with pytest.raises(ExecutionError, match="negative address"):
        ex.step()


def test_running_off_the_end_is_a_pc_fault():
    ex = Executor(assemble("li r1, 1\nst r1, r1, -9"))
    with pytest.raises(ExecutionError, match="negative address"):
        list(ex.run(10))
    ex = Executor(assemble("li r1, 1\nli r2, 2"))
    seen = []
    with pytest.raises(ExecutionError, match="pc out of range: 2"):
        for dyn in ex.run(10):
            seen.append(dyn.seq)
    assert seen == [0, 1]


def test_step_and_run_continue_one_another():
    program = assemble("""
        li r1, 0
    loop:
        addi r1, r1, 1
        nop
        bne r1, r2, loop
        halt
    """)
    mixed = Executor(program, int_regs={"r2": 3})
    records = [mixed.step() for _ in range(4)] + list(mixed.run(4))
    records += list(mixed.run(100))
    assert mixed.halted and mixed.step() is None
    whole = list(Executor(program, int_regs={"r2": 3}).run(100))
    assert records == whole


def test_alu_basics():
    ex = run_regs("""
        li r1, 6
        li r2, 7
        mul r3, r1, r2
        add r4, r3, r1
        sub r5, r4, r2
        halt
    """)
    assert ex.regs["r3"] == 42
    assert ex.regs["r4"] == 48
    assert ex.regs["r5"] == 41


def test_shifts_and_masks():
    ex = run_regs("""
        li r1, 0xF0
        srli r2, r1, 4
        slli r3, r2, 2
        andi r4, r1, 0x30
        halt
    """)
    assert ex.regs["r2"] == 0x0F
    assert ex.regs["r3"] == 0x3C
    assert ex.regs["r4"] == 0x30


def test_division_semantics():
    ex = run_regs("""
        li r1, 7
        li r2, 2
        div r3, r1, r2
        li r4, 0
        div r5, r1, r4
        rem r6, r1, r2
        halt
    """)
    assert ex.regs["r3"] == 3
    assert ex.regs["r5"] == 0  # div-by-zero yields 0 by definition
    assert ex.regs["r6"] == 1


def test_loads_and_stores():
    ex = run_regs("""
        li r1, 0x1000
        li r2, 99
        st r2, r1, 8
        ld r3, r1, 8
        halt
    """)
    assert ex.regs["r3"] == 99
    assert ex.memory.load(0x1008) == 99


def test_indexed_load():
    mem = Memory({0x2010: 7})
    ex = run_regs("""
        li r1, 0x2000
        li r2, 2
        ldx r3, r1, r2
        halt
    """, memory=mem)
    assert ex.regs["r3"] == 7


def test_branch_taken_and_fallthrough():
    trace = make_trace("""
        li r1, 0
        li r2, 3
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """)
    branches = [d for d in trace if d.is_branch]
    assert [d.taken for d in branches] == [True, True, False]


def test_trace_producers_track_dataflow():
    trace = make_trace("""
        li r1, 1
        li r2, 2
        add r3, r1, r2
        add r4, r3, r3
        halt
    """)
    assert trace[2].src_producers == (0, 1)
    assert trace[3].src_producers == (2, 2)


def test_initial_state_producer_is_minus_one():
    trace = make_trace("add r3, r1, r2", max_insts=1)
    assert trace[0].src_producers == (-1, -1)


def test_store_value_recorded():
    trace = make_trace("""
        li r1, 0x4000
        li r2, 17
        st r2, r1, 0
        halt
    """)
    store = next(d for d in trace if d.is_store)
    assert store.store_value == 17
    assert store.addr == 0x4000


def test_next_pc_chaining():
    trace = make_trace("""
        li r1, 1
        beqz r1, skip
        addi r1, r1, 1
    skip:
        halt
    """)
    for prev, cur in zip(trace, trace[1:]):
        assert prev.next_pc == cur.pc


def test_run_respects_budget():
    trace = make_trace("""
    loop:
        addi r1, r1, 1
        j loop
    """, max_insts=50)
    assert len(trace) == 50


def test_halt_stops_execution():
    trace = make_trace("""
        nop
        halt
        nop
    """, max_insts=100)
    assert len(trace) == 2
    assert trace[-1].inst.is_halt


def test_pointer_chase_follows_memory():
    # node at 0x1000 -> 0x2000 -> 0x3000
    mem = Memory({0x1000: 0x2000, 0x2000: 0x3000})
    ex = Executor(assemble("""
        ld r1, r1, 0
        ld r1, r1, 0
        halt
    """), memory=mem, int_regs={"r1": 0x1000})
    trace = list(ex.run(10))
    assert trace[0].addr == 0x1000
    assert trace[1].addr == 0x2000
    assert ex.regs["r1"] == 0x3000


def test_trace_of_convenience():
    program = assemble("li r1, 1\nhalt")
    trace = trace_of(program, 10)
    assert len(trace) == 2


def test_seq_numbers_are_dense():
    trace = make_trace("""
    loop:
        addi r1, r1, 1
        j loop
    """, max_insts=20)
    assert [d.seq for d in trace] == list(range(20))


def test_values_wrap_to_64_bits():
    ex = run_regs("""
        li r1, 1
        slli r2, r1, 63
        slli r3, r2, 1
        halt
    """)
    assert ex.regs["r2"] == -(1 << 63)
    assert ex.regs["r3"] == 0
