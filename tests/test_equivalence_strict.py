"""Strict-mode equivalence regression tests.

The object pipeline must produce bit-identical statistics with
idle-span jumping on vs. strict cycle-by-cycle execution
(``allow_skip``), over randomized programs, core configurations and
LTP modes, and over the real paper workloads.  Equality is asserted
on the full :meth:`SimStats.as_dict` plus the hierarchy's demand and
rejection counters.  The idle jump is the object engine's only
shortcut; the kernel's stall-span jump and MSHR-retry gating are
checked against this engine in ``tests/test_stall_span_jump.py`` and
``tests/test_kernel_differential.py``.

One known exception: an idle jump over a fetch blocked on a
mispredict counts ``stall_frontend`` once per jump instead of once per
cycle (a ROADMAP item; fixing it moves recorded reference digests).
The randomized test therefore holds ``stall_frontend`` to at most the
strict count, and ``test_idle_jump_counts_every_frontend_stall_cycle``
pins the gap as a strict xfail.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import default_session
from repro.api.session import warm_branch_predictor, warm_hierarchy
from repro.core.branch import GsharePredictor
from repro.core.params import baseline_params, ltp_params
from repro.core.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.policies import LTPPolicy
from repro.ltp.oracle import annotate_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import get_workload

from test_properties_pipeline import random_core, random_ltp, random_program

MODES = (
    {"allow_skip": False},
)


def full_stats(pipeline) -> dict:
    """Run *pipeline*; its full stats plus the hierarchy's counters."""
    stats = pipeline.run().as_dict()
    hierarchy = pipeline.hierarchy
    stats["hier_demand_accesses"] = hierarchy.stats.demand_accesses
    stats["hier_mshr_rejections"] = hierarchy.stats.mshr_rejections
    stats["hier_full_rejections"] = hierarchy.mshrs.full_rejections
    stats["hier_l1d_misses"] = hierarchy.l1d.misses
    return stats


def mismatches(base: dict, other: dict) -> dict:
    assert set(base) == set(other)
    return {key: (base[key], other[key])
            for key in base if base[key] != other[key]}


def _pipeline_random(trace, core, ltp, **kwargs):
    oracle = annotate_trace(trace, core.mem,
                            window=min(core.rob_size or 256, 256))
    policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
    return Pipeline(trace, params=core, ltp=ltp, policy=policy,
                    **kwargs)


def _random_case(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    return trace, random_core(rng), random_ltp(rng)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=12, deadline=None)
def test_equivalence_random_programs(seed):
    trace, core, ltp = _random_case(seed)
    base = full_stats(_pipeline_random(trace, core, ltp))
    for kwargs in MODES:
        other = full_stats(_pipeline_random(trace, core, ltp, **kwargs))
        diff = mismatches(base, other)
        frontend = diff.pop("stall_frontend", None)
        assert not diff, (kwargs, diff)
        if frontend is not None:
            # the documented idle-jump undercount, and only that
            assert kwargs.get("allow_skip") is False, (kwargs, frontend)
            assert frontend[0] < frontend[1], (kwargs, frontend)


@pytest.mark.xfail(strict=True, reason="an idle jump over a fetch "
                   "blocked on a mispredict counts stall_frontend once "
                   "per jump (ROADMAP); fixing it moves recorded "
                   "reference digests")
def test_idle_jump_counts_every_frontend_stall_cycle():
    # seed 37's program has idle spans while fetch waits on a
    # mispredicted branch
    trace, core, ltp = _random_case(37)
    skip = full_stats(_pipeline_random(trace, core, ltp))
    strict = full_stats(_pipeline_random(trace, core, ltp,
                                         allow_skip=False))
    assert skip["stall_frontend"] == strict["stall_frontend"]


def _run_workload(name, core, ltp, warmup, measure, **kwargs):
    total = warmup + measure
    trace = default_session().get_trace(name, total)
    workload = get_workload(name)
    oracle = (default_session().get_oracle(name, total, core)
              if ltp.enabled else None)
    warmup_slice = trace[:warmup]
    hierarchy = MemoryHierarchy(core.mem)
    warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                   warm_regions=workload.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
    if ltp.enabled and oracle is not None and warmup:
        policy.warm_from_trace(warmup_slice, oracle.long_latency[:warmup])
    pipeline = Pipeline(trace[warmup:], params=core, ltp=ltp,
                        policy=policy, hierarchy=hierarchy,
                        branch_predictor=bpred, **kwargs)
    return full_stats(pipeline)


def test_equivalence_paper_workloads():
    cases = [
        ("lattice_milc", baseline_params(), no_ltp()),
        ("lattice_milc", ltp_params(), proposed_ltp()),
        ("ptrchase_astar", ltp_params(), limit_ltp("nr+nu")),
        ("stream_triad", ltp_params(), limit_ltp("nu")),
    ]
    for name, core, ltp in cases:
        base = _run_workload(name, core, ltp, 800, 1200)
        for kwargs in MODES:
            other = _run_workload(name, core, ltp, 800, 1200, **kwargs)
            diff = mismatches(base, other)
            assert not diff, (name, kwargs, diff)


def test_signature_covers_occupancy_integrals():
    """The signature must include every structure's exact integral."""
    trace = list(Executor(assemble("""
        li r1, 0
        li r2, 30
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """)).run(200))
    stats = Pipeline(trace).run()
    signature = stats.equivalence_signature()
    for name in ("rob", "iq", "lq", "sq", "rf_int", "rf_fp",
                 "ltp", "ltp_regs", "ltp_loads", "ltp_stores"):
        assert f"integral_{name}" in signature
        assert signature[f"integral_{name}"] == \
            stats.occupancies[name].integral
    assert signature["ipc"] == stats.ipc
