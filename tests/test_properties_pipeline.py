"""Property-based tests of the full pipeline: random programs must run
to completion with every instruction committed exactly once, under
random core configurations and LTP modes, and idle-skip must never
change the results."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.params import CoreParams
from repro.core.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import LTPConfig, limit_ltp, no_ltp
from repro.policies import LTPPolicy
from repro.ltp.oracle import annotate_trace


def random_program(rng: random.Random, n_body: int) -> str:
    """A random but well-formed loop body mixing ALU/mem/branch work."""
    lines = [
        "li r1, 0x10000000",
        "li r2, 0x40000000",
        "li r3, 0",
        "li r29, 0",
        f"li r30, {rng.randrange(5, 25)}",
        "loop:",
    ]
    label_counter = [0]
    for _ in range(n_body):
        kind = rng.randrange(7)
        a = f"r{4 + rng.randrange(8)}"
        b = f"r{4 + rng.randrange(8)}"
        c = f"r{4 + rng.randrange(8)}"
        if kind == 0:
            lines.append(f"add {a}, {b}, {c}")
        elif kind == 1:
            lines.append(f"mul {a}, {b}, {c}")
        elif kind == 2:
            lines.append(f"andi {a}, {b}, 0x3FF8")
            lines.append(f"add {a}, r1, {a}")
            lines.append(f"ld {a}, {a}, 0")
        elif kind == 3:
            lines.append(f"andi {a}, {b}, 0x3FF8")
            lines.append(f"add {a}, r2, {a}")
            lines.append(f"st {b}, {a}, 0")
        elif kind == 4:
            lines.append(f"fadd f{rng.randrange(8)}, "
                         f"f{rng.randrange(8)}, f{rng.randrange(8)}")
        elif kind == 5:
            skip = f"s{label_counter[0]}"
            label_counter[0] += 1
            lines.append(f"beqz {a}, {skip}")
            lines.append(f"addi {b}, {b}, 1")
            lines.append(f"{skip}:")
        else:
            lines.append(f"div {a}, {b}, {c}")
    lines += [
        "addi r29, r29, 1",
        "blt r29, r30, loop",
        "halt",
    ]
    return "\n".join(lines)


def random_core(rng: random.Random) -> CoreParams:
    params = CoreParams(
        rob_size=rng.choice([16, 32, 64, 128]),
        iq_size=rng.choice([4, 8, 16, 32]),
        lq_size=rng.choice([4, 8, 16]),
        sq_size=rng.choice([4, 8]),
        int_regs=rng.choice([16, 32, 64]),
        fp_regs=rng.choice([16, 32, 64]),
    )
    params.mem.mshrs = rng.choice([2, 8, None])
    return params


def random_ltp(rng: random.Random) -> LTPConfig:
    roll = rng.randrange(4)
    if roll == 0:
        return no_ltp()
    mode = rng.choice(["nu", "nr", "nr+nu"])
    return limit_ltp(mode).but(
        entries=rng.choice([8, 32, None]),
        ports=rng.choice([1, 2, 4]),
        tickets=rng.choice([4, 16, None]),
        monitor=rng.choice(["auto", "on"]),
        park_loads=False, park_stores=False,
        release_reserve=rng.choice([2, 4]),
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_program_random_config_completes(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 10))
    trace = list(Executor(assemble(asm)).run(600))
    core = random_core(rng)
    ltp = random_ltp(rng)
    oracle = annotate_trace(trace, core.mem,
                            window=min(core.rob_size or 256, 256))
    policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
    pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
    stats = pipeline.run()
    assert stats.committed == len(trace)
    assert stats.occupancies["rob"].peak <= (core.rob_size or 1 << 30)
    assert stats.occupancies["iq"].peak <= (core.iq_size or 1 << 30)
    assert stats.occupancies["lq"].peak <= (core.lq_size or 1 << 30)
    assert stats.occupancies["sq"].peak <= (core.sq_size or 1 << 30)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_skip_equivalence_random(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    fast = Pipeline(trace, params=core, allow_skip=True).run()
    slow = Pipeline(trace, params=core, allow_skip=False).run()
    assert fast.cycles == slow.cycles
    assert fast.committed == slow.committed
    assert fast.issued == slow.issued
    for name in ("rob", "iq", "lq", "sq", "rf_int", "rf_fp"):
        assert (fast.occupancies[name].integral
                == slow.occupancies[name].integral), name
