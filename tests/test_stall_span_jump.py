"""The kernel's stall-span jump: rename-stalled and MSHR-gated cycles.

With skipping on, a kernel tick may jump to the next event while its
only pending work is a rename attempt stalled on a full structure
(whose hooks moved nothing but counters) and loads rejected at the
current MSHR version; the skipped cycles' repeats are charged in bulk.
The object engine has no such jump: it retries the attempt and the
loads every cycle.  On stall-heavy points, object strict
(``allow_skip=False``), object jumping (idle jump only), kernel strict
and kernel jumping runs must agree on the full statistics, the
hierarchy's demand/rejection counters and the policy's own counters
(``park_stalls``, and the ticket pool, UIT fills and hit/miss
predictor where the policy has them).  Every registered policy
overrides ``stall_marks`` (the base policy's guard never holds), and
each has a point here.

The kernel's loop keeps all its state in locals, so its spans are
counted through the collaborators it pre-binds when the loop starts
(``policy.repeat_stall``, ``hierarchy.repeat_rejection``,
``hierarchy.advance``): instance attributes set before ``run()`` see
every call.

The known exception is inherited from the plain idle jump: over a fetch
blocked on a mispredict it counts ``stall_frontend`` once per jump (see
``tests/test_equivalence_strict.py``), so the randomized test holds
that one counter to at most the strict count.
"""

import pickle
import random
from collections import Counter
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.api import Session
from repro.api.session import warm_branch_predictor, warm_hierarchy
import repro.core.kernel as kernel_mod
import repro.core.pipeline as pipeline_mod
from repro.core.branch import GsharePredictor
from repro.core.inflight import InFlightInst
from repro.core.kernel import KernelPipeline
from repro.core.params import ltp_params
from repro.core.pipeline import Pipeline, SimulationDeadlock
from repro.harness.config import SimConfig
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import proposed_ltp
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import LTPPolicy
from repro.ltp.oracle import annotate_trace
from repro.policies import build_policy, policy_names
from repro.policies.scenarios import OracleParkPolicy
from repro.workloads import get_workload

from test_equivalence_strict import full_stats, mismatches
from test_golden_stats import _fig11_ltp
from test_ltp_controller import make_record
from test_properties_pipeline import random_core, random_program

WARMUP = 400
MEASURE = 1200


def _points():
    small = ltp_params()
    two_mshrs = small.but(mem=replace(small.mem, mshrs=2))
    online = dict(classifier="online", ll_predictor="twolevel")
    # an 8-entry parking queue: every parking policy stalls on it
    # (stall_ltp_full) for most of the run
    e8 = proposed_ltp().but(entries=8)
    return {
        "astar-nrnu-t4": (
            "ptrchase_astar", small,
            _fig11_ltp("nr+nu", tickets=4, monitor="auto"), "ltp"),
        "astar-nrnu-unlimited": (
            "ptrchase_astar", small,
            _fig11_ltp("nr+nu", tickets=None, monitor="auto"), "ltp"),
        "astar-nrnu-online-uit8x1": (
            "ptrchase_astar", small,
            _fig11_ltp("nr+nu", tickets=None, monitor="auto",
                       uit_size=8, uit_ways=1, **online), "ltp"),
        "milc-nu-auto": (
            "lattice_milc", small, _fig11_ltp("nu", monitor="auto"), "ltp"),
        "astar-proposed-uit8x1": (
            "ptrchase_astar", small,
            proposed_ltp().but(uit_size=8, uit_ways=1), "ltp"),
        "hash-proposed-uit4x2": (
            "hash_probe", small,
            proposed_ltp().but(uit_size=4, uit_ways=2), "ltp"),
        "milc-mshr2-baseline": (
            "lattice_milc", two_mshrs, proposed_ltp(), "baseline-stall"),
        "astar-e8-oracle-park": (
            "ptrchase_astar", small, e8, "oracle-park"),
        "astar-e8-random-park": (
            "ptrchase_astar", small, e8, "random-park"),
        "milc-e8-depth-park": (
            "lattice_milc", small, e8, "depth-park"),
        "milc-e8-model-park": (
            "lattice_milc", small, e8, "model-park"),
        "astar-e8-confidence-park-uit8x1": (
            "ptrchase_astar", small, e8.but(uit_size=8, uit_ways=1),
            "confidence-park"),
        "astar-e8-loadpred-park": (
            "ptrchase_astar", small, e8, "loadpred-park"),
        # an 8-entry LQ: loads stall at rename on cold blocks, so each
        # verdict falls through to the hit/miss predictor
        "hash-lq8-loadpred-park": (
            "hash_probe", small.but(lq_size=8), proposed_ltp(),
            "loadpred-park"),
        # disabled LTP: capacity stalls on a full IQ, RF or LSQ
        "astar-disabled-online": (
            "ptrchase_astar", small, proposed_ltp().but(enabled=False),
            "ltp"),
    }


def counters(pipeline) -> dict:
    """Run *pipeline*: :func:`full_stats` plus the policy's own
    counters, which the bulk charge must keep exact too:
    ``park_stalls`` always, the ticket pool, classifier and hit/miss
    predictor where the policy has them."""
    stats = full_stats(pipeline)
    policy = pipeline.policy
    stats["park_stalls"] = policy.park_stalls
    tickets = getattr(policy, "tickets", None)
    if tickets is not None:
        stats["pool_allocated"] = tickets.pool.allocated
        stats["pool_exhausted"] = tickets.pool.exhausted
    classifier = getattr(policy, "classifier", None)
    uit = getattr(classifier, "uit", None)
    if uit is not None:
        stats["uit_fills"] = uit.fills
    elif classifier is not None:
        stats["classifier_lookups"] = classifier.lookups
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        stats["predictor_lookups"] = predictor.lookups
        stats["predictor_misses"] = predictor.predicted_misses
    return stats


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    with Session(cache_dir=str(tmp_path_factory.mktemp("stall"))) as s:
        yield s


def _build(session, name, engine="object", allow_skip=True):
    workload, core, ltp, policy = _points()[name]
    config = SimConfig(workload=workload, core=core, ltp=ltp,
                       policy=policy, warmup=WARMUP, measure=MEASURE,
                       engine=engine)
    pipeline = session.build_pipeline(config.validate())
    pipeline.allow_skip = allow_skip
    return pipeline


class _Spans:
    """Counts the stall-span jumps of one kernel pipeline.

    Each bulk charge names its span: ``policy.repeat_stall`` charges a
    stalled rename attempt's hook counters (``times`` skipped cycles)
    and ``hierarchy.repeat_rejection(n)`` with an argument charges the
    gated loads' retries (a single gated retry is the argument-free
    call).  A ROB stall runs no hook, so its spans go uncounted here.
    The hierarchy's clock (``_last_advance_cycle``) holds the span's
    first cycle while it is charged.  A gated span leaves the MSHRs
    full, so the next tick advances the hierarchy first: its cycle is
    where the span ended.
    """

    def __init__(self, pipeline):
        self.spans = set()          # first cycles of the charged spans
        self.gated_spans = 0
        self.expiry_bounded = 0
        self.charged = 0            # cycles charged via repeat_stall
        hierarchy = pipeline.hierarchy
        policy = pipeline.policy
        repeat_stall = policy.repeat_stall
        repeat_rejection = hierarchy.repeat_rejection
        advance = hierarchy.advance
        gated_until = []            # the MSHR expiry a gated span saw

        def counted_repeat_stall(before, after, times):
            self.spans.add(hierarchy._last_advance_cycle)
            self.charged += times
            repeat_stall(before, after, times)

        def counted_repeat_rejection(*times):
            if times:
                self.spans.add(hierarchy._last_advance_cycle)
                self.gated_spans += 1
                expiry = hierarchy.mshrs._expiry
                assert expiry, "a gated span with no MSHR busy"
                gated_until.append(expiry[0][0])
            repeat_rejection(*times)

        def checked_advance(now):
            if gated_until:
                # the span ended at the next MSHR expiry
                self.expiry_bounded += gated_until.pop() == now
            advance(now)

        policy.repeat_stall = counted_repeat_stall
        hierarchy.repeat_rejection = counted_repeat_rejection
        hierarchy.advance = checked_advance


@pytest.mark.parametrize("name", sorted(_points()))
def test_strict_equals_jump_equals_kernel(session, name):
    strict = counters(_build(session, name, allow_skip=False))
    jumped = counters(_build(session, name))
    kernel_strict = counters(_build(session, name, engine="kernel",
                                    allow_skip=False))
    pipeline = _build(session, name, engine="kernel")
    spans = _Spans(pipeline)
    kernel = counters(pipeline)
    assert not mismatches(strict, jumped), name
    assert not mismatches(strict, kernel_strict), name
    assert not mismatches(strict, kernel), name
    assert spans.spans, name
    if "park" in name:
        # the jump takes effect: repeat_stall charged stalled attempts
        assert spans.charged > 0, name
    if "-uit" in name:
        # the tiny table evicts, which refuses the jump after an
        # attempt whose UIT insert replaced an entry
        uit = pipeline.policy.classifier.uit
        assert uit.fills > uit.size, name
    if "mshr2" in name:
        assert spans.gated_spans > 0
        assert spans.expiry_bounded > 0


def test_jump_takes_effect_on_the_kernel(session):
    # measured at 400+1200 instructions: 2741 of 4100 cycles are
    # charged in bulk through repeat_stall alone, so the kernel ticks
    # fewer than half the cycles (the object engine, with the idle jump
    # alone, ticks 3919 times)
    pipeline = _build(session, "astar-nrnu-t4", engine="kernel")
    spans = _Spans(pipeline)
    stats = pipeline.run()
    assert spans.charged > 0.5 * stats.cycles


def test_every_declared_policy_has_a_strict_vs_jump_point():
    """Every registered policy's ``stall_marks`` (the base class's or
    an override) lets the kernel jump, so each needs a point in the
    four-way comparison above, which checks it."""
    covered = {point[3] for point in _points().values()}
    for name in policy_names():
        assert name in covered, name


class _UndeclaredOraclePark(OracleParkPolicy):
    """``oracle-park`` with marks that state nothing: a fresh guard on
    every call, which never holds, and no counters to repeat."""

    def stall_marks(self, dyn) -> tuple:
        return (object(),)

    def repeat_stall(self, before: tuple, after: tuple,
                     times: int) -> None:
        pass


def _hand_built(session, engine, policy_cls):
    """The ``astar-nrnu-t4`` point on *engine*, with a *policy_cls*
    policy built here and passed as ``policy=``."""
    workload, core, ltp, _ = _points()["astar-nrnu-t4"]
    total = WARMUP + MEASURE
    trace = session.get_trace(workload, total)
    oracle = session.get_oracle(workload, total, core)
    warmup_slice = trace[:WARMUP]
    hierarchy = MemoryHierarchy(core.mem)
    built = get_workload(workload)
    warm_hierarchy(hierarchy, warmup_slice, len(built.program),
                   warm_regions=built.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    policy = policy_cls(ltp, core.mem.dram_latency, oracle=oracle)
    policy.warm_from_trace(warmup_slice, oracle.long_latency[:WARMUP])
    return engine(trace[WARMUP:], params=core, ltp=ltp, policy=policy,
                  hierarchy=hierarchy, branch_predictor=bpred)


def test_undeclared_policy_keeps_ticking_its_attempts(session):
    """A policy whose ``stall_marks`` guard is fresh on every call
    never has its stalled attempts repeated in bulk by the
    kernel, and its run still matches the object engine's."""
    pipeline = _hand_built(session, KernelPipeline, _UndeclaredOraclePark)
    spans = _Spans(pipeline)
    kernel = counters(pipeline)
    reference = counters(_hand_built(session, Pipeline,
                                     _UndeclaredOraclePark))
    assert not mismatches(reference, kernel)
    stalls = ("stall_iq", "stall_regs", "stall_lsq", "stall_ltp_full")
    assert sum(kernel[key] for key in stalls) > 0
    # the kernel still jumps, but only over gated loads
    assert spans.gated_spans > 0
    assert spans.charged == 0


@pytest.mark.parametrize("name", ["astar-disabled-online",
                                  "milc-mshr2-baseline"])
def test_one_record_per_rename_attempt_on_both_engines(session, name,
                                                       monkeypatch):
    """Strict runs of both engines build one record per rename attempt,
    the stalled attempts of a disabled LTP policy included."""
    built = {}
    for module in (kernel_mod, pipeline_mod):
        def counted(dyn, _module=module):
            built[_module] = built.get(_module, 0) + 1
            return InFlightInst(dyn)
        monkeypatch.setattr(module, "InFlightInst", counted)
    stats = {}
    for engine, module in (("object", pipeline_mod),
                           ("kernel", kernel_mod)):
        stats[engine] = _build(session, name, engine=engine,
                               allow_skip=False).run()
        assert built.get(module, 0) > 0, engine
    capacity = ("stall_iq", "stall_regs", "stall_lsq")
    assert sum(getattr(stats["kernel"], key) for key in capacity) > 0
    assert built[kernel_mod] == built[pipeline_mod]
    assert built[kernel_mod] > stats["kernel"].renamed


# ================================================================
# the marks' guard: each state change it must catch
# ================================================================
def _online(**overrides):
    return LTPPolicy(proposed_ltp().but(**overrides), dram_latency=100)


def _confidence(**overrides):
    return build_policy("confidence-park", proposed_ltp().but(**overrides),
                        dram_latency=100)


def _attempt(policy, seq, pc, **inst):
    """One stalled rename attempt: the marks before and after it."""
    record = make_record(seq, pc=pc, **inst)
    before = policy.stall_marks(record.dyn)
    policy.observe_rename(record)
    policy.may_allocate(record, now=0)
    return before, policy.stall_marks(record.dyn)


def test_guard_catches_a_changed_producer_pc_entry():
    _producer_pc_guard(_online())


def test_confidence_guard_catches_a_changed_producer_pc_entry():
    _producer_pc_guard(_confidence())


def test_guard_catches_uit_fills_and_evictions():
    _uit_fill_guard(_online(uit_size=2, uit_ways=1))  # two one-way sets


def test_confidence_guard_catches_uit_fills_and_evictions():
    _uit_fill_guard(_confidence(uit_size=2, uit_ways=1))


def _producer_pc_guard(policy):
    before, after = _attempt(policy, 5, pc=40, opcode="addi",
                             srcs=("r1",))
    assert before[0] != after[0]
    before, after = _attempt(policy, 5, pc=40, opcode="addi",
                             srcs=("r1",))
    assert before[0] == after[0]
    assert after[1] - before[1] == 1  # one UIT lookup per attempt


def _uit_fill_guard(policy):
    uit = policy.classifier.uit
    _attempt(policy, 0, pc=12, opcode="li", dst="r2", srcs=())
    _attempt(policy, 1, pc=13, opcode="li", dst="r4", srcs=())
    uit.insert(10)
    # the urgent store at PC 10 reads r4: inserting PC 13 fills set 1
    before, after = _attempt(policy, 2, pc=10, opcode="st", dst=None,
                             srcs=("r5", "r4"))
    assert before[0] != after[0]
    before, after = _attempt(policy, 2, pc=10, opcode="st", dst=None,
                             srcs=("r5", "r4"))
    assert before[0] == after[0]
    assert after[2] - before[2] == 1  # the re-insert only restamps
    # reading r2 instead, inserting PC 12 evicts PC 10 itself, so a
    # repeat would classify differently
    before, after = _attempt(policy, 3, pc=10, opcode="st", dst=None,
                             srcs=("r5", "r2"))
    assert before[0] != after[0]
    assert not uit.contains(10)


def test_guard_catches_granted_tickets_but_not_refusals():
    policy = _online(mode="nr", tickets=1)
    before, after = _attempt(policy, 0, pc=20, opcode="div")
    assert before[0] != after[0]  # granted, never released
    before, after = _attempt(policy, 0, pc=20, opcode="div")
    assert before[0] == after[0]
    assert after[4] - before[4] == 1  # the pool refused: exhausted


def test_repeat_stall_charges_every_counter_per_repeat():
    policy = _online(mode="nr+nu", tickets=1, entries=1, monitor="on")
    _attempt(policy, 0, pc=20, opcode="div")  # takes the one ticket
    policy.queue.push(make_record(9, pc=90))  # fills the queue
    before, after = _attempt(policy, 1, pc=21, opcode="div")
    deltas = [a - b for a, b in zip(after[1:], before[1:])]
    lookups, _, park_stalls, exhausted, _, _ = deltas
    assert lookups == park_stalls == exhausted == 1
    policy.repeat_stall(before, after, 3)
    charged = policy.stall_marks(make_record(1, pc=21).dyn)
    assert [c - a for c, a in zip(charged[1:], after[1:])] == [
        3 * d for d in deltas]


def test_confidence_repeat_stall_charges_every_counter_per_repeat():
    policy = _confidence(entries=1)
    policy.classifier.uit.insert(21)  # urgent: a lookup and an insert
    policy.classifier._producer_pc["r2"] = 20
    _attempt(policy, 1, pc=21)  # moves the producer-PC entry of r1
    policy.queue.push(make_record(9, pc=90))  # fills the queue
    record = make_record(1, pc=21)
    record.producer_records = (_parked_producer(),)
    before = policy.stall_marks(record.dyn)
    policy.observe_rename(record)
    assert policy.may_allocate(record, now=0) == "stall"
    after = policy.stall_marks(record.dyn)
    assert before[0] == after[0]
    deltas = [a - b for a, b in zip(after[1:], before[1:])]
    assert deltas == [1, 1, 1]  # lookups, inserts, park_stalls
    policy.repeat_stall(before, after, 3)
    charged = policy.stall_marks(record.dyn)
    assert [c - a for c, a in zip(charged[1:], after[1:])] == [3, 3, 3]


def _parked_producer():
    producer = make_record(0, pc=10)
    producer.parked = True
    return producer


def _policy_state(policy) -> bytes:
    """Everything a policy holds except ``park_stalls``."""
    state = dict(vars(policy))
    del state["park_stalls"]
    return pickle.dumps(state)


@pytest.mark.parametrize("name", ["random-park", "depth-park",
                                  "model-park", "loadpred-park"])
def test_parking_repeat_moves_only_park_stalls(name):
    """A stalled attempt of these policies repeats with ``park_stalls``
    its one moving part, and :meth:`repeat_stall` charges ``times``
    of it."""
    policy = build_policy(name, proposed_ltp().but(entries=1),
                          dram_latency=100)
    policy.queue.push(make_record(9, pc=90))  # fills the queue
    producer = _parked_producer()  # forces the load to park: a stall

    def attempt():
        record = make_record(1, pc=11, opcode="ld", srcs=("r1",))
        record.producer_records = (producer,)
        before = policy.stall_marks(record.dyn)
        policy.observe_rename(record)
        assert policy.may_allocate(record, now=0) == "stall"
        return before, policy.stall_marks(record.dyn)

    attempt()  # the first attempt may memoise a verdict
    state = _policy_state(policy)
    before, after = attempt()
    assert before[0] == after[0]
    assert [a - b for a, b in zip(after[1:], before[1:])] == [1]
    assert _policy_state(policy) == state
    policy.repeat_stall(before, after, 3)
    assert policy.park_stalls == after[1] + 3


# ================================================================
# randomized programs: 1-2 MSHRs, tiny UITs, few tickets
# ================================================================
def _random_ltp(rng):
    return proposed_ltp().but(
        mode=rng.choice(["nu", "nr", "nr+nu"]),
        entries=rng.choice([8, 32, 128]),
        ports=rng.choice([1, 2, 4]),
        tickets=rng.choice([2, 4, None]),
        monitor=rng.choice(["auto", "on"]),
        uit_size=rng.choice([4, 8, 16]),
        uit_ways=rng.choice([1, 2]))


@given(st.integers(min_value=0, max_value=100_000))
@example(170)  # wedges under "ltp" (ROADMAP item 4)
@settings(max_examples=10, deadline=None)
def test_random_programs_with_gated_loads_and_tiny_uits(seed):
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    core.mem.mshrs = rng.choice([1, 2])
    ltp = _random_ltp(rng)
    oracle = annotate_trace(trace, core.mem,
                            window=min(core.rob_size or 256, 256))
    for policy in policy_names():
        def run(engine, **kwargs):
            built = build_policy(policy, ltp, core.mem.dram_latency,
                                 oracle=oracle)
            try:
                return counters(engine(trace, params=core, ltp=ltp,
                                       policy=built, **kwargs))
            except SimulationDeadlock as exc:
                # the model can wedge (e.g. a parked ROB head facing a
                # full IQ); every mode must then report it
                return str(exc)

        strict = run(Pipeline, allow_skip=False)
        jumped = run(Pipeline)
        kernel = run(KernelPipeline)
        kernel_strict = run(KernelPipeline, allow_skip=False)
        if isinstance(strict, str):
            # both engines report the same wedge; a strict run, and an
            # object run, which retries a stalled rename every cycle,
            # only notice it at the no-commit timeout, the jumping
            # kernel as soon as no event is left: only the cycle
            # differs
            assert strict == kernel_strict, policy
            state = strict.split(": ", 1)[1]
            for other in (jumped, kernel, kernel_strict):
                assert other.split(": ", 1)[1] == state, policy
            continue
        assert not mismatches(jumped, kernel), policy
        assert not mismatches(strict, kernel_strict), policy
        diff = mismatches(strict, jumped)
        frontend = diff.pop("stall_frontend", None)
        assert not diff, (policy, diff)
        assert frontend is None or frontend[1] < frontend[0], policy


# ================================================================
# the ticket leak of stalled NR rename attempts (not fixed here)
# ================================================================
@pytest.mark.xfail(strict=True, reason="a stalled rename attempt of a "
                   "predicted-long-latency load in an NR mode is granted "
                   "a ticket that nothing releases (ROADMAP); fixing it "
                   "moves fig11's statistics")
@pytest.mark.parametrize("name", ["astar-nrnu-t4", "astar-nrnu-unlimited"])
def test_drained_run_leaves_no_live_ticket(session, name):
    pipeline = _build(session, name)
    pipeline.run()
    assert pipeline.policy.tickets.pool.live_count == 0


# ================================================================
# the duplicate ready-heap entry of a record dispatched at rename
# ================================================================
@pytest.fixture(scope="module")
def rejections_per_cycle(session):
    """``(seq, cycle) -> MSHR rejections`` of every rejected load on a
    2-MSHR object-engine point.  The engines agree on the rejection
    counters (``tests/test_equivalence_strict.py``), so the object
    engine, whose load path sees the record, stands for both."""
    pipeline = _build(session, "milc-mshr2-baseline")
    stats = pipeline.hierarchy.stats
    execute_load = pipeline._execute_load
    seen = Counter()

    def counting(record, now):
        before = stats.mshr_rejections
        issued = execute_load(record, now)
        if stats.mshr_rejections != before:
            seen[record.seq, now] += 1
        return issued

    pipeline._execute_load = counting
    pipeline.run()
    return seen


def test_the_two_mshr_point_rejects_loads(rejections_per_cycle):
    assert len(rejections_per_cycle) > 100


@pytest.mark.xfail(strict=True, reason="a record dispatched at rename "
                   "gets a ready-heap entry at IQ insert and another "
                   "once its dependences register, so select pops a "
                   "gated load twice a cycle; one entry per record moves "
                   "the hierarchy counters of tests/golden_stats.json "
                   "(ROADMAP item 4)")
def test_no_load_is_rejected_twice_in_one_cycle(rejections_per_cycle):
    assert max(rejections_per_cycle.values()) == 1
