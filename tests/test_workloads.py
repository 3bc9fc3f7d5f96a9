"""Tests for the synthetic workload suite."""

import hashlib
import tracemalloc

import pytest

from repro.isa.trace import DynInst
from repro.ltp.oracle import annotate_trace
from repro.workloads import (MLP_INSENSITIVE, MLP_SENSITIVE, get_workload,
                             mixes, mlp_insensitive_suite,
                             mlp_sensitive_suite, suite_names,
                             workload_names)
from repro.workloads.builders import (index_array, linked_ring, region_base,
                                      sequential_array)


def test_registry_names():
    names = workload_names()
    assert "indirect_fig2" in names
    assert "lattice_milc" in names
    assert len(names) == 15


def test_aliases():
    assert get_workload("astar").name == "ptrchase_astar"
    assert get_workload("milc").name == "lattice_milc"


def test_unknown_workload():
    with pytest.raises(KeyError):
        get_workload("nonexistent")


def test_suites_partition():
    sensitive = {w.name for w in mlp_sensitive_suite()}
    insensitive = {w.name for w in mlp_insensitive_suite()}
    assert sensitive & insensitive == set()
    assert sensitive | insensitive == set(workload_names())
    assert len(sensitive) == 7
    assert len(insensitive) == 8


@pytest.mark.parametrize("name", [
    "indirect_fig2", "ptrchase_astar", "sparse_gather", "hash_probe",
    "lattice_milc", "stream_triad", "compute_fp", "compute_int",
    "small_ws_ring", "stencil_small", "branchy_compute", "btree_probe",
    "spmv_csr", "memset_stream", "blocked_mm",
])
def test_workload_produces_full_trace(name):
    workload = get_workload(name)
    trace = workload.trace(400)
    assert len(trace) == 400, f"{name} halted early"
    assert [d.seq for d in trace] == list(range(400))


#: sha256 over the repr of every DynInst slot of each workload's first
#: 3000 instructions.  Every golden point, cached result and reference
#: digest rests on these traces: a change here is a change to them all.
TRACE_DIGESTS = {
    "blocked_mm": "dca3bc4f8e29aa657463f9aab5ef5fec"
                  "870f33e6e705081e7b03c7016b1c62c8",
    "branchy_compute": "02ff02f32b0599799c6660ca8317848d"
                       "fa9c63bbfa9e66e6c1d38372ab65ad3b",
    "btree_probe": "c22ecbefb47abda7e8cd1aa407747594"
                   "799f84949ec50d9bc225b9072a305a67",
    "compute_fp": "33be21efad5e854d7c0b5163a1ba350d"
                  "fa21c4f70076c80ebd4964cd85d27d3e",
    "compute_int": "a4247e73ebc39d665afde3d41c53eb39"
                   "8a32dd7cfd874077976a77ce9a4972e1",
    "hash_probe": "d14a82c2719526e184c0c46b0faa28e6"
                  "1e0e75d1ba9332ec134ea8dace9d3c42",
    "indirect_fig2": "57e5a8d5259ff6e1d1d4c4d1ac9717d1"
                     "e462febb332d04f45df395958a8e6770",
    "lattice_milc": "13c87daabe519b91f6e90b0996ed0308"
                    "eb2cfb1c80a72003d4550721d10f8618",
    "memset_stream": "baaee035b8e6c34d8122195e88fc4c1a"
                     "7d7a07bcd3d196e51b9b3291c9931f0a",
    "ptrchase_astar": "490b908f321e779f6cc4c716062e8119"
                      "329726db3b893ad423ae54b39722c052",
    "small_ws_ring": "72a6713ee1d66d67ff56b6bcac4d529b"
                     "5691b969a5cc681272a8f8a6cfd628b8",
    "sparse_gather": "0ef777e0b941b663cf165a90aae46add"
                     "19c4eaf76f87a9918db0e6c3cba42249",
    "spmv_csr": "00a9c02444fb98473bbaffbc021e1373"
                "1cc6d7bdf3565817567d36ce417c47e7",
    "stencil_small": "b33345cbb991a563832789e85dcc7ae6"
                     "a55d1769c3d33a03f15cc9136ad5ce4c",
    "stream_triad": "f9b46783bdf20a7787ec5ee274a4b640"
                    "23db4d4ca0a42f1ba6a7f33162c163c9",
}


def trace_digest(trace):
    digest = hashlib.sha256()
    for dyn in trace:
        for slot in DynInst.__slots__:
            digest.update(repr(getattr(dyn, slot)).encode())
            digest.update(b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", workload_names())
def test_trace_is_pinned(name):
    assert trace_digest(get_workload(name).trace(3000)) == TRACE_DIGESTS[name]


def test_a_trace_reads_the_memory_image_without_copying_it():
    workload = get_workload("ptrchase_astar")
    assert len(workload.memory_words) > 200_000
    tracemalloc.start()
    try:
        workload.trace(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["memset_stream", "indirect_fig2"])
def test_stores_never_reach_the_memory_image(name):
    workload = get_workload(name)
    before = dict(workload.memory_words)
    first = list(workload.executor().run(3000))
    second = list(workload.executor().run(3000))
    assert any(dyn.is_store for dyn in first)
    assert trace_digest(first) == trace_digest(second)
    assert workload.memory_words == before


@pytest.mark.parametrize("name", workload_names())
def test_declared_category_is_the_built_one(name):
    assert mixes.CATEGORY_OF[name] == get_workload(name).category


def test_planning_builds_no_workload(monkeypatch):
    from repro.harness.experiments import (fig11_tickets, plan_configs,
                                           sweep_preset)

    def refuse():
        raise AssertionError("planning built a workload")
    for name in list(mixes._FACTORIES):
        monkeypatch.setitem(mixes._FACTORIES, name, refuse)
    assert len(suite_names(MLP_SENSITIVE)) == 7
    assert len(suite_names(MLP_INSENSITIVE)) == 8
    assert len(plan_configs(fig11_tickets)) == 135
    assert len(sweep_preset("policy-compare").expand()) == 120


def test_traces_deterministic():
    a = get_workload("sparse_gather").trace(200)
    b = get_workload("sparse_gather").trace(200)
    assert [(d.pc, d.addr) for d in a] == [(d.pc, d.addr) for d in b]


def test_sensitive_workloads_have_long_latency_loads():
    for workload in mlp_sensitive_suite():
        trace = workload.trace(1500)
        oracle = annotate_trace(trace,
                                warm_regions=workload.warm_regions)
        assert sum(oracle.long_latency) > 5, workload.name


def test_insensitive_workloads_have_few_misses():
    for workload in mlp_insensitive_suite():
        trace = workload.trace(1500)
        oracle = annotate_trace(trace,
                                warm_regions=workload.warm_regions)
        miss_rate = sum(oracle.long_latency) / len(trace)
        # streams are covered by the prefetcher; compute kernels miss
        # almost never (cold misses only)
        assert miss_rate < 0.12, workload.name


def test_fig2_kernel_matches_paper_classes():
    """The Figure 2 kernel must classify like the paper's example."""
    workload = get_workload("indirect_fig2")
    trace = workload.trace(3000)
    oracle = annotate_trace(trace, warm_regions=workload.warm_regions)
    program = workload.program
    by_pc = {}
    for i, dyn in enumerate(trace[200:], start=200):
        entry = by_pc.setdefault(dyn.pc, [0, 0, 0])
        entry[0] += 1
        entry[1] += oracle.urgent[i]
        entry[2] += oracle.non_ready[i]

    def majority_class(pc):
        count, urgent, non_ready = by_pc[pc]
        return (urgent / count > 0.5, non_ready / count > 0.5)

    opcode_of = {pc: program[pc].opcode for pc in by_pc}
    # the B load (fldx) is urgent; its consumer (fadd) is NU+NR; the
    # store is NU+NR (it is non-ready through the fadd); the loop
    # counter/branch are NU+R
    for pc in by_pc:
        urgent, non_ready = majority_class(pc)
        opcode = opcode_of[pc]
        if opcode == "fldx":
            assert urgent, "B load must be urgent"
        elif opcode == "fadd":
            assert not urgent and non_ready
        elif opcode == "fst":
            assert not urgent and non_ready
        elif opcode == "blt":
            assert not urgent and not non_ready


def test_ptrchase_loads_are_urgent_and_non_ready():
    workload = get_workload("ptrchase_astar")
    trace = workload.trace(2000)
    oracle = annotate_trace(trace, warm_regions=workload.warm_regions)
    chase = [i for i, d in enumerate(trace)
             if d.inst.opcode == "ld" and d.inst.imm == 0 and i > 200]
    assert chase
    urgent_and_nr = sum(1 for i in chase
                        if oracle.urgent[i] and oracle.non_ready[i])
    assert urgent_and_nr / len(chase) > 0.8


def test_milc_has_non_urgent_majority():
    workload = get_workload("lattice_milc")
    trace = workload.trace(2000)
    oracle = annotate_trace(trace, warm_regions=workload.warm_regions)
    non_urgent = sum(1 for i in range(200, len(trace))
                     if not oracle.urgent[i])
    assert non_urgent / (len(trace) - 200) > 0.5


# ------------------------------------------------------------ builders
def test_region_bases_disjoint():
    bases = [region_base(i) for i in range(24)]
    assert len(set(bases)) == len(bases)
    for a, b in zip(bases, bases[1:]):
        assert b - a >= 64 * 1024 * 1024


def test_index_array_deterministic_and_bounded():
    arr1 = index_array(0x1000, 128, 1000, seed=3)
    arr2 = index_array(0x1000, 128, 1000, seed=3)
    assert arr1 == arr2
    assert all(0 <= v < 1000 for v in arr1.values())
    assert len(arr1) == 128


def test_sequential_array():
    arr = sequential_array(0x2000, 4, start=10, step=2)
    assert arr == {0x2000: 10, 0x2008: 12, 0x2010: 14, 0x2018: 16}


def test_linked_ring_is_a_cycle():
    memory, head = linked_ring(0x10000, nodes=50, region_blocks=128, seed=1)
    seen = set()
    addr = head
    for _ in range(50):
        assert addr not in seen
        seen.add(addr)
        addr = memory[addr]
    assert addr == head  # closes the ring
    assert len(seen) == 50


def test_linked_ring_nodes_on_distinct_blocks():
    memory, head = linked_ring(0x10000, nodes=64, region_blocks=64, seed=2)
    assert len({a // 64 for a in memory}) == 64


def test_linked_ring_rejects_overfull():
    with pytest.raises(ValueError):
        linked_ring(0, nodes=10, region_blocks=5, seed=0)


def test_workload_executor_fresh_state():
    workload = get_workload("compute_int")
    ex1 = workload.executor()
    list(ex1.run(100))
    ex2 = workload.executor()
    trace = list(ex2.run(100))
    assert trace[0].seq == 0
