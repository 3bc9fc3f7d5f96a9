"""Differential and integration guarantees of the kernel engine.

The columnar struct-of-arrays engine (:mod:`repro.core.kernel`) claims
*bit-identity* with the reference object pipeline — not statistical
closeness.  This module holds the evidence beyond the real-workload
grid in ``test_policies_differential.py``:

* randomized programs/cores across **every registered policy**, strict
  and idle-skip execution, full ``SimStats.as_dict()`` equality;
* randomized ``SimConfig``s through the **session path** (trace-array
  cache, warmup windowing, oracle plumbing) — ``engine="kernel"``
  results equal ``engine="object"`` field for field;
* ``simulate_batch`` over one shared predecode equals N independent
  reference runs;
* the session's trace-arrays LRU: shared predecode across configs,
  eviction alongside the trace cache, invalidation on trace growth;
* cache-key stability: the default engine serializes exactly as
  pre-engine configs did, while ``engine="kernel"`` keys separately.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import Session
from repro.core.kernel import KernelPipeline, predecode, simulate_batch
from repro.core.pipeline import Pipeline
from repro.harness.config import SimConfig
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import no_ltp, proposed_ltp
from repro.ltp.oracle import annotate_trace
from repro.policies import build_policy, policy_names, policy_needs_oracle

from test_properties_pipeline import random_core, random_program


def _assert_same_stats(ref, ker, context):
    mismatches = {key: (ref[key], ker.get(key))
                  for key in ref if ref[key] != ker.get(key)}
    assert set(ref) == set(ker), (context, set(ref) ^ set(ker))
    assert not mismatches, (context, mismatches)


# ================================================================
# randomized programs x every policy x strict/skip
# ================================================================
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_kernel_matches_reference_for_every_policy(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = proposed_ltp().but(entries=rng.choice([8, 32, 128]),
                             ports=rng.choice([1, 2, 4]))
    for name in policy_names():
        oracle = None
        if policy_needs_oracle(name, ltp):
            oracle = annotate_trace(trace, core.mem,
                                    window=min(core.rob_size or 256, 256))
        for allow_skip in (True, False):
            policies = [build_policy(name, ltp, core.mem.dram_latency,
                                     oracle=oracle) for _ in range(2)]
            ref = Pipeline(trace, params=core, ltp=ltp,
                           policy=policies[0],
                           allow_skip=allow_skip).run().as_dict()
            ker = KernelPipeline(trace, params=core, ltp=ltp,
                                 policy=policies[1],
                                 allow_skip=allow_skip).run().as_dict()
            _assert_same_stats(ref, ker, (seed, name, allow_skip))


# ================================================================
# randomized SimConfigs through the session path
# ================================================================
@given(st.data())
@settings(max_examples=8, deadline=None)
def test_kernel_engine_matches_object_engine_through_session(tmp_path_factory,
                                                             data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    workload = rng.choice(["lattice_milc", "ptrchase_astar",
                           "stream_triad", "sparse_gather"])
    ltp = rng.choice([no_ltp(), proposed_ltp(),
                      proposed_ltp().but(entries=16, ports=2)])
    warmup = rng.choice([0, 200, 500])
    measure = rng.choice([200, 400])
    scratch = tmp_path_factory.mktemp("simcache")
    with Session(cache_dir=str(scratch)) as session:
        base = SimConfig(workload=workload, ltp=ltp,
                         warmup=warmup, measure=measure)
        kernel = SimConfig(workload=workload, ltp=ltp,
                           warmup=warmup, measure=measure,
                           engine="kernel")
        ref = session.run(base, use_cache=False).stats
        ker = session.run(kernel, use_cache=False).stats
        _assert_same_stats(ref, ker, (workload, warmup, measure))


# ================================================================
# batch execution over one shared predecode
# ================================================================
def test_simulate_batch_equals_independent_reference_runs():
    from repro.harness.runner import get_trace

    trace = get_trace("lattice_milc", 600)
    configs = [no_ltp(), proposed_ltp(),
               proposed_ltp().but(entries=16, ports=2)]
    arrays = predecode(trace)
    batch = simulate_batch(
        trace, ({"ltp": ltp} for ltp in configs), arrays=arrays)
    singles = [Pipeline(trace, ltp=ltp).run() for ltp in configs]
    for ltp, batched, single in zip(configs, batch, singles):
        _assert_same_stats(single.as_dict(), batched.as_dict(),
                           ("batch", ltp.entries, ltp.enabled))


def test_simulate_batch_rejects_mismatched_arrays():
    from repro.harness.runner import get_trace

    trace = get_trace("stream_triad", 400)
    arrays = predecode(trace[:200])
    with pytest.raises(ValueError):
        KernelPipeline(trace, arrays=arrays)


# ================================================================
# the session trace-arrays cache
# ================================================================
def test_session_shares_one_predecode_across_configs(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        first = session.get_trace_arrays("lattice_milc", 600)
        again = session.get_trace_arrays("lattice_milc", 600)
        # same cached predecode object (full-length request)
        assert first is again
        # a shorter request windows the same cached arrays
        window = session.get_trace_arrays("lattice_milc", 300)
        assert window.n == 300
        assert window.dyns[0] is first.dyns[0]
        assert list(session._trace_cache) == ["lattice_milc"]


def test_session_arrays_cache_evicts_with_trace_cache(tmp_path):
    with Session(cache_dir=str(tmp_path), trace_cache_size=2) as session:
        for name in ("lattice_milc", "ptrchase_astar", "stream_triad"):
            session.get_trace_arrays(name, 300)
        assert len(session._trace_cache) <= 2
        assert "lattice_milc" not in session._trace_cache
        assert "stream_triad" in session._trace_cache
        session.clear_memory_caches()
        assert not session._trace_cache


def test_session_arrays_invalidate_when_trace_grows(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        short = session.get_trace_arrays("stream_triad", 200)
        assert short.n == 200
        longer = session.get_trace_arrays("stream_triad", 500)
        assert longer.n == 500
        # the regenerated (longer) trace must be re-predecoded
        assert longer.dyns[:200] == session.get_trace("stream_triad", 200)


# ================================================================
# cache-key and payload stability
# ================================================================
def test_engine_field_keeps_default_payloads_and_keys_stable():
    base = SimConfig(workload="lattice_milc")
    assert "engine" not in base.to_dict()
    kernel = SimConfig(workload="lattice_milc", engine="kernel")
    assert kernel.to_dict()["engine"] == "kernel"
    assert kernel.key() != base.key()
    round_trip = SimConfig.from_dict(kernel.to_dict())
    assert round_trip.engine == "kernel"
    assert round_trip.key() == kernel.key()
    assert SimConfig.from_dict(base.to_dict()).engine == "object"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        SimConfig(workload="lattice_milc", engine="vector").validate()


def test_sweep_spec_engine_axis_and_id_stability():
    from repro.api import SweepSpec

    default = SweepSpec(workloads=["stream_triad"])
    kernel = SweepSpec(workloads=["stream_triad"], engine="kernel")
    assert default.sweep_id() != kernel.sweep_id()
    assert "engine" not in default.to_dict()
    axis = SweepSpec(workloads=["stream_triad"],
                     axes={"engine": ["object", "kernel"]})
    assert [c.engine for c in axis.expand()] == ["object", "kernel"]
    round_trip = SweepSpec.from_dict(kernel.to_dict())
    assert round_trip.engine == "kernel"
    assert round_trip.sweep_id() == kernel.sweep_id()
