"""Event-driven wakeup of the parking policies against a queue walk.

``depth-park``, ``model-park``, ``confidence-park``, ``loadpred-park``
and ``random-park`` once found their next release by walking the whole
LTP queue every cycle and testing each record: ``waiting_on == 0`` for
the four data-ready policies, an expired countdown for ``random-park``,
and the parked ROB head always.  Now the engines hand a parked record
to ``policy.on_parked_ready`` at the two moments it can become
data-ready (dependence registration, right after it parks, and the
writeback that clears its last wait), ``on_release_scan`` reads the
queue's ready heap, and ``random-park`` reads only its queue head.

Both engines run here with a wrapper around ``on_release_scan`` that
applies the old rule to every parked record, oldest first, at every
call, and demands the same record and the same ``forced_release``
marks.  The moves are the engines' own: parks at rename, writebacks,
releases (ports and resources permitting), a parked ROB head forced
out, and countdowns expiring as cycles pass.

A fixed set of real-workload runs must reach the forced head, a
non-forced release and, for the data-ready policies, the writeback
wake (and the registration wake where a policy parks records whose
operands are ready); random programs on random cores then vary the
interleavings.
"""

import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import default_session
from repro.api.session import warm_hierarchy
from repro.core.kernel import KernelPipeline
from repro.core.params import ltp_params
from repro.core.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import proposed_ltp
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import build_policy
from repro.policies.scenarios import RandomParkPolicy
from repro.workloads import get_workload

from test_properties_pipeline import random_core, random_program

SCAN_POLICIES = ("depth-park", "model-park", "confidence-park",
                 "loadpred-park", "random-park")
ENGINES = {"object": Pipeline, "kernel": KernelPipeline}


def wakes(policy, record, now):
    """The old per-record wakeup predicate."""
    if isinstance(policy, RandomParkPolicy):
        parked_at = record.rename_cycle
        return parked_at is not None and now - parked_at >= policy.delay
    return record.waiting_on == 0


def queue_walk(policy, now, force_seq):
    """The old rule over the whole queue: the first record, oldest
    first, that is the forced ROB head or wakes."""
    for record in policy.queue:
        if record.seq == force_seq or wakes(policy, record, now):
            return record
    return None


def instrument(policy):
    """Check every ``on_release_scan`` call against :func:`queue_walk`;
    count the wake sites and the kinds of answer."""
    seen = Counter()
    scan = policy.on_release_scan

    def checked_scan(now, boundary_seq, force_seq):
        queue = list(policy.queue)
        want_marks = {r.seq for r in queue if r.forced_release}
        want = queue_walk(policy, now, force_seq)
        got = scan(now, boundary_seq, force_seq)
        assert got is want, (now, force_seq, got, want)
        forced = want is not None and want.seq == force_seq
        if forced:
            want_marks.add(want.seq)
        marks = {r.seq for r in queue if r.forced_release}
        assert marks == want_marks, (now, force_seq)
        if got is not None:
            seen["forced" if forced else "woken"] += 1
        return got

    policy.on_release_scan = checked_scan
    wake = policy.on_parked_ready
    if wake is not None:
        def counted_wake(record):
            assert record.parked and record.waiting_on == 0
            # registration runs before rename stamps the record
            seen["registration" if record.rename_cycle is None
                 else "writeback"] += 1
            wake(record)

        policy.on_parked_ready = counted_wake
    return seen


def run_checked(engine, policy_name, trace, core, ltp, hierarchy=None):
    policy = build_policy(policy_name, ltp, core.mem.dram_latency)
    pipeline = ENGINES[engine](trace, params=core, ltp=ltp, policy=policy,
                               hierarchy=hierarchy)
    seen = instrument(policy)
    stats = pipeline.run()
    assert stats.committed == len(trace)
    assert stats.ltp_parked == stats.ltp_released
    return seen


#: policies that park records whose operands are ready: the others
#: park only a record waiting on an in-flight producer (or a rare
#: memory-dependence forced park), so only writeback wakes them
WAKE_AT_REGISTRATION = ("model-park", "confidence-park")
#: (workload, entries, ports): a small queue fills and forces the head
FIXED_CASES = (("lattice_milc", 128, 4), ("ptrchase_astar", 16, 1),
               ("sparse_gather", 32, 2), ("hash_probe", 8, 1))
WARMUP, MEASURE = 300, 600


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("policy_name", SCAN_POLICIES)
def test_fixed_cases_reach_every_wake_path(policy_name, engine):
    core = ltp_params()
    total = Counter()
    for workload, entries, ports in FIXED_CASES:
        trace = default_session().get_trace(workload, WARMUP + MEASURE)
        hierarchy = MemoryHierarchy(core.mem)
        warm_hierarchy(hierarchy, trace[:WARMUP],
                       len(get_workload(workload).program),
                       warm_regions=get_workload(workload).warm_regions)
        ltp = proposed_ltp().but(entries=entries, ports=ports)
        total += run_checked(engine, policy_name, trace[WARMUP:], core, ltp,
                             hierarchy=hierarchy)
    assert total["forced"] > 0, total
    assert total["woken"] > 0, total
    if policy_name == "random-park":
        assert not total["registration"] and not total["writeback"]
    else:
        assert total["writeback"] > 0, total
    if policy_name in WAKE_AT_REGISTRATION:
        assert total["registration"] > 0, total


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_wakeup_matches_queue_walk_on_random_programs(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = proposed_ltp().but(entries=rng.choice([4, 16, 128]),
                             ports=rng.choice([1, 2, 4]))
    for policy_name in SCAN_POLICIES:
        for engine in ENGINES:
            run_checked(engine, policy_name, trace, core, ltp)
