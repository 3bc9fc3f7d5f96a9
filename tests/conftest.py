"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.api import Session, set_default_session
from repro.core.params import CoreParams
from repro.isa.assembler import assemble
from repro.isa.executor import Executor, Memory


@pytest.fixture
def fresh_session(tmp_path):
    """A fresh :class:`Session` over an empty cache directory, installed
    as the process-global default for the test's duration."""
    session = Session(cache_dir=str(tmp_path / "simcache"))
    previous = set_default_session(session)
    try:
        yield session
    finally:
        set_default_session(previous)


def make_trace(asm: str, max_insts: int = 200, int_regs=None, fp_regs=None,
               memory=None):
    """Assemble *asm* and return its dynamic trace."""
    program = assemble(asm)
    executor = Executor(program, memory=Memory(memory or {}),
                        int_regs=int_regs or {}, fp_regs=fp_regs or {})
    return list(executor.run(max_insts))


@pytest.fixture
def small_core() -> CoreParams:
    """A modest core configuration for fast unit tests."""
    return CoreParams(rob_size=64, iq_size=16, lq_size=16, sq_size=8,
                      int_regs=32, fp_regs=32)


@pytest.fixture
def tiny_loop_trace():
    """A short ALU loop trace with true dependences."""
    return make_trace("""
        li   r1, 0
        li   r2, 40
    loop:
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
    """, max_insts=100)
