"""Functional executor: interprets a Program and emits a dynamic trace.

The executor maintains architectural state (integer registers, FP
registers modelled as integers for determinism, and 8-byte-word memory
over an immutable initial image) and yields
:class:`~repro.isa.trace.DynInst` records in program order.  Branches
are resolved against real register values, so pointer chasing and
data-dependent control flow behave exactly as they would on hardware.

The executor also tracks, per architectural register, the sequence number
of the last dynamic writer.  That gives every DynInst its true dataflow
edges without any separate dependence analysis.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.isa.trace import DynInst, static_fields

WORD = 8  # bytes per memory word

_MASK64 = (1 << 64) - 1
_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class ExecutionError(RuntimeError):
    """Raised on functional-execution faults (bad PC, division by zero)."""


class WordImage(Mapping):
    """An immutable memory image: sorted, non-overlapping runs of
    consecutive 8-byte words, each a word-aligned byte base and a
    read-only signed 64-bit array.  As a mapping it holds every word of
    every run; :meth:`get` reads any other word as *default*."""

    def __init__(self, runs: Iterable[Tuple[int, Any]] = ()) -> None:
        """*runs* are (byte base, values) pairs in any order; a run that
        is already a read-only view of an image is shared, not copied."""
        frozen, end = [], 0
        for base, values in sorted(runs, key=operator.itemgetter(0)):
            if base % WORD or base < end:
                raise ValueError(f"misaligned or overlapping run 0x{base:x}")
            if not (isinstance(values, memoryview)
                    and isinstance(values.obj, bytes)):
                values = memoryview(array("q", values).tobytes()).cast("q")
            frozen.append((base, values))
            end = base + WORD * len(values)
        self.runs = tuple(frozen)
        self._bases = [base for base, _ in frozen]

    @classmethod
    def from_words(cls, words: Mapping) -> "WordImage":
        """The image that storing each entry of *words* in order leaves:
        keys aligned down to their word, values wrapped to signed 64
        bits, a later entry winning; a negative address raises."""
        aligned = {Memory._word_addr(addr): _to_signed(value)
                   for addr, value in words.items()}
        runs: List[Tuple[int, List[int]]] = []
        for word in sorted(aligned):
            if not runs or word != runs[-1][0] + WORD * len(runs[-1][1]):
                runs.append((word, []))
            runs[-1][1].append(aligned[word])
        return cls(runs)

    @classmethod
    def join(cls, *images: "WordImage") -> "WordImage":
        """One image holding the runs of every image (none may overlap)."""
        return cls(run for image in images for run in image.runs)

    def get(self, word: int, default: Any = None) -> Any:
        """The value at the word-aligned byte address *word*."""
        i = bisect_right(self._bases, word) - 1
        if i >= 0:
            base, values = self.runs[i]
            offset = (word - base) >> 3
            if offset < len(values):
                return values[offset]
        return default

    def __getitem__(self, word: int) -> int:
        value = None if word % WORD else self.get(word)
        if value is None:
            raise KeyError(word)
        return value

    def __iter__(self) -> Iterator[int]:
        for base, values in self.runs:
            yield from range(base, base + WORD * len(values), WORD)

    def __len__(self) -> int:
        return sum(len(values) for _, values in self.runs)


class Memory:
    """Word-addressed functional memory (8-byte words): an initial
    :class:`WordImage`, read in place, under a private overlay of
    stores.  A word dict is converted by :meth:`WordImage.from_words`.
    """

    def __init__(self, initial: Optional[Mapping] = None) -> None:
        self._stores: Dict[int, int] = {}
        self._image = (initial if isinstance(initial, WordImage)
                       else WordImage.from_words(initial or {}))

    @staticmethod
    def _word_addr(addr: int) -> int:
        if addr < 0:
            raise ExecutionError(f"negative address 0x{addr:x}")
        return addr - (addr % WORD)

    def load(self, addr: int) -> int:
        word = self._word_addr(addr)
        value = self._stores.get(word)
        return self._image.get(word, 0) if value is None else value

    def store(self, addr: int, value: int) -> None:
        self._stores[self._word_addr(addr)] = _to_signed(value)


def _div(a: int, b: int, imm: int) -> int:
    if b == 0:
        return 0  # architectural choice: div-by-zero yields 0
    return int(a / b) if (a < 0) != (b < 0) else a // b


#: ALU opcode -> its result from the first two source values (0 where
#: the instruction has fewer sources) and the immediate
_ALU: Dict[str, Callable[[int, int, int], int]] = {
    "li": lambda a, b, imm: imm,
    "mov": lambda a, b, imm: a,
    "addi": lambda a, b, imm: a + imm,
    "andi": lambda a, b, imm: a & imm,
    "slli": lambda a, b, imm: a << (imm & 63),
    "srli": lambda a, b, imm: (a & _MASK64) >> (imm & 63),
    "add": lambda a, b, imm: a + b,
    "sub": lambda a, b, imm: a - b,
    "and": lambda a, b, imm: a & b,
    "or": lambda a, b, imm: a | b,
    "xor": lambda a, b, imm: a ^ b,
    "sll": lambda a, b, imm: a << (b & 63),
    "srl": lambda a, b, imm: (a & _MASK64) >> (b & 63),
    "mul": lambda a, b, imm: a * b,
    "div": _div,
    "rem": lambda a, b, imm: a % b if b else 0,
    "fsqrt": lambda a, b, imm: int(abs(a) ** 0.5),
}
# FP registers hold integers: the FP forms compute as the integer ones
_ALU.update(fli=_ALU["li"], fmov=_ALU["mov"], cvt=_ALU["mov"],
            fadd=_ALU["add"], fsub=_ALU["sub"], fmul=_ALU["mul"], fdiv=_div)

#: branch opcode -> its direction from the first two source values (the
#: one-source forms compare with the 0 an absent second source reads)
_TAKEN: Dict[str, Callable[[int, int], bool]] = {
    "beq": operator.eq, "bne": operator.ne,
    "blt": operator.lt, "bge": operator.ge,
    "bltz": operator.lt, "bgez": operator.ge,
    "bnez": operator.ne, "beqz": operator.eq,
}

#: how the interpretation loop executes a static instruction
_ALU_OP, _LOAD, _STORE, _BRANCH, _JUMP, _NOP, _HALT = range(7)
_KIND = {OpClass.LOAD: _LOAD, OpClass.STORE: _STORE,
         OpClass.BRANCH: _BRANCH, OpClass.JUMP: _JUMP, OpClass.NOP: _NOP}


def _decode(program: Program) -> List[Tuple]:
    """The per-PC table the interpretation loop runs from.  A row is
    (kind, semantics, instruction, its static DynInst fields, dst,
    first and second register source, number of sources, imm,
    target); absent registers are None."""
    table = []
    for pc, inst in enumerate(program):
        kind = _HALT if inst.is_halt else _KIND.get(inst.op_class, _ALU_OP)
        srcs = inst.srcs + (None, None)
        table.append((kind, _ALU.get(inst.opcode) or _TAKEN.get(inst.opcode),
                      inst, static_fields(inst, pc), inst.dst, srcs[0],
                      srcs[1], len(inst.srcs), inst.imm, inst.target))
    return table


class Executor:
    """Interprets a :class:`Program`, yielding the dynamic trace."""

    def __init__(self, program: Program,
                 memory: Optional[Memory] = None,
                 int_regs: Optional[Dict[str, int]] = None,
                 fp_regs: Optional[Dict[str, int]] = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.regs: Dict[str, int] = {}
        for name, value in (int_regs or {}).items():
            self.regs[name] = _to_signed(value)
        for name, value in (fp_regs or {}).items():
            self.regs[name] = _to_signed(value)
        # last dynamic writer per architectural register; -1 = initial state
        self._last_writer: Dict[str, int] = {}
        self._table = _decode(program)
        self.pc = 0
        self.seq = 0
        self.halted = False

    def step(self) -> Optional[DynInst]:
        """Execute one instruction; return its DynInst or None if halted."""
        return next(self.run(1), None)

    def run(self, max_insts: int) -> Iterator[DynInst]:
        """Yield up to *max_insts* dynamic instructions.

        The one interpretation loop.  Each step reads its instruction's
        row of the per-PC table, so a record is built from the row's
        static fields without a constructor or property call.  Each
        step also reads ``pc``, ``seq`` and ``halted`` from the executor
        and writes them back before its record is yielded: the state
        always matches the records handed out (so calls to
        :meth:`step` and :meth:`run` interleave freely), and a fault
        leaves it at the faulting instruction.
        """
        table = self._table
        n = len(table)
        regs = self.regs
        read = regs.get
        stores = self.memory._stores
        stored, image = stores.get, self.memory._image.get
        last_writer = self._last_writer
        writer = last_writer.get
        new = object.__new__
        for _ in range(max_insts):
            if self.halted:
                return
            pc = self.pc
            seq = self.seq
            if not 0 <= pc < n:
                raise ExecutionError(f"pc out of range: {pc}")
            (kind, semantics, inst, static, dst, src0, src1, n_srcs, imm,
             target) = table[pc]
            if n_srcs == 2:
                producers: Tuple[int, ...] = (writer(src0, -1),
                                              writer(src1, -1))
            elif n_srcs:
                producers = (writer(src0, -1),)
            else:
                producers = ()
            addr = store_value = taken = None
            next_pc = pc + 1
            if kind == _ALU_OP:
                value = semantics(read(src0, 0), read(src1, 0), imm)
                regs[dst] = (value if _MIN64 <= value <= _MAX64
                             else _to_signed(value))
            elif kind == _LOAD:
                # ld/fld: base + imm; ldx/fldx: base + index words
                addr = read(src0, 0) + (read(src1, 0) * WORD
                                        if n_srcs == 2 else imm)
                if addr < 0:
                    raise ExecutionError(f"negative address 0x{addr:x}")
                word = addr - addr % WORD
                # both store paths wrap and an image holds signed
                # 64-bit words, so every loaded value is already one
                value = stored(word)
                regs[dst] = image(word, 0) if value is None else value
            elif kind == _STORE:
                # srcs = (base, data)
                addr = read(src0, 0) + imm
                store_value = read(src1, 0)
                if addr < 0:
                    raise ExecutionError(f"negative address 0x{addr:x}")
                stores[addr - addr % WORD] = (
                    store_value if _MIN64 <= store_value <= _MAX64
                    else _to_signed(store_value))
            elif kind == _BRANCH:
                taken = semantics(read(src0, 0), read(src1, 0))
                if taken:
                    next_pc = target
            elif kind == _JUMP:
                taken = True
                next_pc = target
            elif kind == _HALT:
                self.halted = True

            dyn = new(DynInst)
            dyn.seq = seq
            dyn.pc = pc
            dyn.inst = inst
            dyn.src_producers = producers
            dyn.addr = addr
            dyn.store_value = store_value
            dyn.taken = taken
            dyn.next_pc = next_pc
            (dyn.op_class, dyn.is_load, dyn.is_store, dyn.is_mem,
             dyn.is_branch, dyn.is_control, dyn.has_dst, dyn.writes_fp,
             dyn.rf_class, dyn.fu_group, dyn.nonpipelined, dyn.n_srcs,
             dyn.code_addr) = static
            if dst is not None:
                last_writer[dst] = seq
            self.pc = next_pc
            self.seq = seq + 1
            yield dyn


def trace_of(program: Program,
             max_insts: int,
             memory: Optional[Memory] = None,
             int_regs: Optional[Dict[str, int]] = None,
             fp_regs: Optional[Dict[str, int]] = None) -> List[DynInst]:
    """Convenience wrapper: run *program* and return the trace as a list."""
    executor = Executor(program, memory=memory, int_regs=int_regs,
                        fp_regs=fp_regs)
    return list(executor.run(max_insts))
