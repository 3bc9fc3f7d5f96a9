"""Workload abstraction: an assembly kernel plus initial state.

A :class:`Workload` bundles a kernel written in the repro ISA with its
initial register and memory state and a category label (MLP-sensitive or
MLP-insensitive).  Kernels are steady-state loops sized so the index
registers wrap with an ``andi`` mask, letting traces of any length be
drawn from them.

Kernels are written so their *dependence structure* reproduces a named
behaviour from the paper (pointer chasing, the Figure 2 indirect loop,
milc-like FP slices, prefetch-friendly streams...), which is what the
LTP mechanism keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isa.assembler import assemble
from repro.isa.executor import Executor, Memory, WordImage
from repro.isa.program import Program
from repro.isa.trace import DynInst

MLP_SENSITIVE = "mlp_sensitive"
MLP_INSENSITIVE = "mlp_insensitive"
CATEGORIES = (MLP_SENSITIVE, MLP_INSENSITIVE)


@dataclass
class Workload:
    """One benchmark kernel with its initial architectural state."""

    name: str
    category: str
    description: str
    asm: str
    int_regs: Dict[str, int] = field(default_factory=dict)
    fp_regs: Dict[str, int] = field(default_factory=dict)
    #: the initial memory: a read-only WordImage (or a word dict)
    memory_words: Mapping[int, int] = field(default_factory=WordImage)
    #: paper checkpoint this kernel stands in for (e.g. "astar/rivers")
    alias: Optional[str] = None
    #: (byte base, word count) regions that a paper-scale warmup (250 M
    #: instructions) would leave cache-resident — small hot arrays the
    #: kernel re-walks with a period far longer than any measured slice.
    #: The runner pre-installs these blocks in the L2/L3.
    warm_regions: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        self._program: Optional[Program] = None

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = assemble(self.asm, name=self.name)
        return self._program

    def executor(self) -> Executor:
        """A fresh functional executor positioned at the kernel entry."""
        return Executor(self.program,
                        memory=Memory(self.memory_words),
                        int_regs=dict(self.int_regs),
                        fp_regs=dict(self.fp_regs))

    def trace(self, max_insts: int) -> List[DynInst]:
        """Execute and return the first *max_insts* dynamic instructions."""
        if max_insts <= 0:
            raise ValueError("max_insts must be positive")
        return list(self.executor().run(max_insts))
