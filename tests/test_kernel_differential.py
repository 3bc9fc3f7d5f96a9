"""Differential and integration guarantees of the kernel engine.

The columnar struct-of-arrays engine (:mod:`repro.core.kernel`) claims
*bit-identity* with the reference object pipeline — not statistical
closeness.  This module holds the evidence beyond the real-workload
grid in ``test_policies_differential.py``:

* randomized programs/cores across **every registered policy**, strict
  and idle-skip execution, full ``SimStats.as_dict()`` plus hierarchy
  counter equality -- including crowded programs whose loads queue at
  one or two MSHRs, where only the kernel gates retries and jumps
  over gated stall spans;
* randomized ``SimConfig``s through the **session path** (trace-array
  cache, warmup windowing, oracle plumbing) — ``engine="kernel"``
  results equal ``engine="object"`` field for field;
* N kernel runs over one shared predecode equal N independent
  reference runs;
* the session's trace-arrays LRU: shared predecode across configs,
  eviction alongside the trace cache, invalidation on trace growth;
* cache-key stability: a config that names no engine runs the kernel
  and serializes exactly as pre-engine configs did, while a named
  engine keys separately (literal keys pin both); the session builds
  the engine a config names.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro.api.session as session_mod
from repro.api import Session, default_session
from repro.core.kernel import KernelPipeline, predecode
from repro.core.pipeline import Pipeline
from repro.harness.config import SimConfig
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.ltp.oracle import annotate_trace
from repro.policies import build_policy, policy_names, policy_needs_oracle

from test_equivalence_strict import full_stats
from test_properties_pipeline import random_core, random_program


def _assert_same_stats(ref, ker, context):
    mismatches = {key: (ref[key], ker.get(key))
                  for key in ref if ref[key] != ker.get(key)}
    assert set(ref) == set(ker), (context, set(ref) ^ set(ker))
    assert not mismatches, (context, mismatches)


# ================================================================
# randomized programs x every policy x strict/skip
# ================================================================
def _crowd(rng, asm):
    """Seed the loop's data registers with large values, so its loads
    and stores spread over many cache blocks."""
    seeds = [f"li r{reg}, {rng.randrange(1 << 14)}" for reg in range(4, 12)]
    return "\n".join(seeds + [asm])


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
# loads gated at one MSHR: the kernel jumps over gated stall spans
@example(27, True)
@settings(max_examples=6, deadline=None)
def test_kernel_matches_reference_for_every_policy(seed, crowded):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    if crowded:
        asm = _crowd(rng, asm)
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = proposed_ltp().but(entries=rng.choice([8, 32, 128]),
                             ports=rng.choice([1, 2, 4]))
    if crowded:
        core.mem.mshrs = rng.choice([1, 2])
    for name in policy_names():
        oracle = None
        if policy_needs_oracle(name, ltp):
            oracle = annotate_trace(trace, core.mem,
                                    window=min(core.rob_size or 256, 256))
        for allow_skip in (True, False):
            policies = [build_policy(name, ltp, core.mem.dram_latency,
                                     oracle=oracle) for _ in range(2)]
            ref = full_stats(Pipeline(trace, params=core, ltp=ltp,
                                      policy=policies[0],
                                      allow_skip=allow_skip))
            ker = full_stats(KernelPipeline(trace, params=core, ltp=ltp,
                                            policy=policies[1],
                                            allow_skip=allow_skip))
            _assert_same_stats(ref, ker,
                               (seed, crowded, name, allow_skip))


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
    # the two disabled configs take the kernel's one rename path with
    # an online and an oracle classifier
    ltp = rng.choice([no_ltp(), proposed_ltp(),
                      proposed_ltp().but(entries=16, ports=2),
                      proposed_ltp().but(enabled=False),
                      limit_ltp("nr+nu").but(enabled=False)])
    warmup = rng.choice([0, 200, 500])
    measure = rng.choice([200, 400])
    scratch = tmp_path_factory.mktemp("simcache")
    with Session(cache_dir=str(scratch)) as session:
        base = SimConfig(workload=workload, ltp=ltp,
                         warmup=warmup, measure=measure, engine="object")
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
    trace = default_session().get_trace("lattice_milc", 600)
    configs = [no_ltp(), proposed_ltp(),
               proposed_ltp().but(entries=16, ports=2)]
    shared = predecode(trace)
    batch = [KernelPipeline(trace, ltp=ltp, arrays=shared).run()
             for ltp in configs]
    singles = [Pipeline(trace, ltp=ltp).run() for ltp in configs]
    for ltp, batched, single in zip(configs, batch, singles):
        _assert_same_stats(single.as_dict(), batched.as_dict(),
                           ("batch", ltp.entries, ltp.enabled))


def test_simulate_batch_rejects_mismatched_arrays():
    trace = default_session().get_trace("stream_triad", 400)
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


def test_session_arrays_cache_evicts_with_trace_cache(tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(session_mod, "TRACE_CACHE_MAX", 2)
    with Session(cache_dir=str(tmp_path)) as session:
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
    base = SimConfig(workload="lattice_milc", warmup=6000, measure=2500)
    assert base.engine is None
    assert "engine" not in base.to_dict()
    kernel = SimConfig(workload="lattice_milc", warmup=6000, measure=2500,
                       engine="kernel")
    assert kernel.to_dict()["engine"] == "kernel"
    obj = SimConfig(workload="lattice_milc", warmup=6000, measure=2500,
                    engine="object")
    assert obj.to_dict()["engine"] == "object"
    # literal keys: default and explicit-kernel configs key exactly as
    # they did while the object engine was the default, so a change of
    # the default engine never re-keys stored results
    assert base.key() == "5104f8c005514a2b20b79e88"
    assert kernel.key() == "0d831e6b2b70cacc7106a965"
    # every named engine keys apart from the default and from each other
    assert len({base.key(), kernel.key(), obj.key()}) == 3
    for config in (kernel, obj):
        round_trip = SimConfig.from_dict(config.to_dict())
        assert round_trip.engine == config.engine
        assert round_trip.key() == config.key()
    assert SimConfig.from_dict(base.to_dict()).engine is None


@pytest.mark.parametrize("engine, expected", [
    (None, KernelPipeline), ("kernel", KernelPipeline), ("object", Pipeline)])
def test_session_builds_the_named_engine(tmp_path, engine, expected):
    config = SimConfig(workload="stream_triad", warmup=100, measure=100,
                       engine=engine)
    with Session(cache_dir=str(tmp_path)) as session:
        assert type(session.build_pipeline(config)) is expected


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        SimConfig(workload="lattice_milc", engine="vector").validate()


def test_sweep_spec_engine_axis_and_id_stability():
    from repro.api import SweepSpec

    default = SweepSpec(workloads=["stream_triad"])
    kernel = SweepSpec(workloads=["stream_triad"], engine="kernel")
    obj = SweepSpec(workloads=["stream_triad"], engine="object")
    assert default.engine is None
    assert "engine" not in default.to_dict()
    # literal ids, pinned from before the default engine changed
    assert default.sweep_id() == "ef5f92f3f574c884"
    assert kernel.sweep_id() == "101a20e688be6cb6"
    assert len({default.sweep_id(), kernel.sweep_id(),
                obj.sweep_id()}) == 3
    assert [c.engine for c in default.expand()] == [None]
    axis = SweepSpec(workloads=["stream_triad"],
                     axes={"engine": ["object", "kernel"]})
    assert [c.engine for c in axis.expand()] == ["object", "kernel"]
    for spec in (kernel, obj):
        round_trip = SweepSpec.from_dict(spec.to_dict())
        assert round_trip.engine == spec.engine
        assert round_trip.sweep_id() == spec.sweep_id()
    assert SweepSpec.from_dict(default.to_dict()).engine is None
