"""Strict-mode equivalence regression tests.

The optimized pipeline must produce bit-identical statistics:

* with idle-span jumping on vs. strict cycle-by-cycle execution
  (``allow_skip``), and
* with the pre-decoded fast path vs. the reference per-use
  table-lookup path (``use_predecode``),

over randomized programs, core configurations and LTP modes, and over
the real paper workloads.  Equality is asserted on
:meth:`SimStats.equivalence_signature`, which covers cycles, IPC,
commit/issue counts and the exact per-structure occupancy integrals.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.branch import GsharePredictor
from repro.core.params import baseline_params, ltp_params
from repro.core.pipeline import Pipeline
from repro.harness.runner import (get_oracle, get_trace,
                                  warm_branch_predictor, warm_hierarchy)
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.ltp.controller import LTPController
from repro.ltp.oracle import annotate_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import get_workload

from test_properties_pipeline import random_core, random_ltp, random_program

MODES = (
    {"allow_skip": False},
    {"use_predecode": False},
    {"allow_skip": False, "use_predecode": False},
)


def _run_random(trace, core, ltp, **kwargs):
    oracle = annotate_trace(trace, core.mem,
                            window=min(core.rob_size or 256, 256))
    controller = LTPController(ltp, core.mem.dram_latency, oracle=oracle)
    pipeline = Pipeline(trace, params=core, ltp=ltp, controller=controller,
                        **kwargs)
    return pipeline.run().equivalence_signature()


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=12, deadline=None)
def test_equivalence_random_programs(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = random_ltp(rng)
    base = _run_random(trace, core, ltp)
    for kwargs in MODES:
        other = _run_random(trace, core, ltp, **kwargs)
        mismatches = {key: (base[key], other[key])
                      for key in base if base[key] != other[key]}
        assert not mismatches, (kwargs, mismatches)


def _run_workload(name, core, ltp, warmup, measure, **kwargs):
    total = warmup + measure
    trace = get_trace(name, total)
    workload = get_workload(name)
    oracle = (get_oracle(name, total, core, trace)
              if ltp.enabled else None)
    warmup_slice = trace[:warmup]
    hierarchy = MemoryHierarchy(core.mem)
    warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                   warm_regions=workload.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    controller = LTPController(ltp, core.mem.dram_latency, oracle=oracle)
    if ltp.enabled and oracle is not None and warmup:
        controller.warm_from_trace(warmup_slice,
                                   oracle.long_latency[:warmup])
    pipeline = Pipeline(trace[warmup:], params=core, ltp=ltp,
                        controller=controller, hierarchy=hierarchy,
                        branch_predictor=bpred, **kwargs)
    return pipeline.run().equivalence_signature()


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
            mismatches = {key: (base[key], other[key])
                          for key in base if base[key] != other[key]}
            assert not mismatches, (name, kwargs, mismatches)


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
