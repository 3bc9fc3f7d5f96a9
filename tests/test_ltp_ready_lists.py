"""The LTP ready lists against a linear-scan oracle.

``LTPPolicy.on_release_scan`` reads the queue's ready lists, which
``park`` and ``on_tag_known`` update as tickets clear, instead of
testing every parked record each cycle.  This property test drives a
policy through random renames (parking, dispatching and stalling),
ticket clears, completions, releases (of any eligible record, not only
the oldest), boundary and force changes and DRAM-timer monitor flips,
and after every move checks the indexed answer against a walk over the
whole queue that applies the wakeup rule record by record, including
which record gets ``forced_release``.

Hypothesis picks the policy configuration and a seed; the per-seq
oracle bits and the move script come from ``random.Random(seed)``,
because uniformly drawn scripts reach the rare interleavings (a
ticket clearing while the monitor drains the queue, an urgent and a
non-urgent record ready at once) far more often than shrink-friendly
small ones.

A second property drives an ``LTPQueue`` directly and pins
``next_release``, a peek at the heap tops, to the rule over every ready
entry, and checks that it leaves both heaps as they were, less
released tops.
"""

import random
from heapq import heappop

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ltp.config import LTPConfig
from repro.ltp.queue import NO_BOUNDARY
from repro.policies import LTPPolicy
from repro.ltp.queue import LTPQueue

from tests.test_ltp_controller import make_oracle, make_record

N_SEQS = 120
#: the monitor stays on this long after a "touch"; most ticks are
#: shorter, so runs see it flip both ways
DRAM_LATENCY = 30
MOVES = ("rename", "rename", "rename", "clear", "clear", "complete",
         "release", "release", "boundary", "force", "touch", "tick")


def scan_candidates(policy, now, boundary_seq, force_seq):
    """The wakeup rule applied to every parked record, oldest first:
    every eligible record, and the forced one."""
    draining = not policy.is_enabled(now)
    eager = policy.ltp_config.wakeup_policy == "eager"
    found, forced = [], []
    for record in policy.queue:
        if record.seq == force_seq:
            forced.append(record)
            found.append(record)
        elif draining:
            if not record.tickets:
                found.append(record)
        elif record.tickets:
            continue
        elif eager or record.urgent or record.seq < boundary_seq:
            found.append(record)
    return found, forced


@given(mode=st.sampled_from(["nr", "nr+nu"]),
       wakeup=st.sampled_from(["rob-position", "eager"]),
       entries=st.sampled_from([4, 16, None]),
       tickets=st.sampled_from([3, 8, None]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_ready_lists_match_linear_scan(mode, wakeup, entries, tickets,
                                       seed):
    rng = random.Random(seed)
    # per-seq oracle bits: urgent, long-latency load, predicted NR
    flags = [rng.randrange(8) for _ in range(N_SEQS)]
    script = [(rng.choice(MOVES), rng.randrange(1 << 16))
              for _ in range(rng.randrange(1, 150))]
    oracle = make_oracle(
        N_SEQS,
        urgent_seqs={s for s, f in enumerate(flags) if f & 1},
        ll_seqs={s for s, f in enumerate(flags) if f & 2},
        nr_seqs={s for s, f in enumerate(flags) if f & 4})
    config = LTPConfig(enabled=True, mode=mode, entries=entries, ports=4,
                       classifier="oracle", oracle_granularity="dynamic",
                       ll_predictor="oracle", tickets=tickets,
                       monitor="auto", wakeup_policy=wakeup)
    policy = LTPPolicy(config, dram_latency=DRAM_LATENCY, oracle=oracle)
    renamed = []            # every record that got past rename, in order
    next_seq = 0
    now = 0
    boundary = NO_BOUNDARY
    force = False

    for move, arg in script:
        if move == "rename" and next_seq < N_SEQS:
            seq = next_seq
            is_load = bool(flags[seq] & 2)
            srcs = ("r2",) if is_load else ("r2", "r3")
            record = make_record(seq, opcode="ld" if is_load else "add",
                                 dst="r1", srcs=srcs)
            recent = renamed[-6:]
            record.producer_records = tuple(
                recent[(arg >> shift) % len(recent)]
                if recent and (arg >> shift) & 8 else None
                for shift in (0, 4)[:len(srcs)])
            policy.observe_rename(record)
            verdict = policy.may_allocate(record, now,
                                          memdep_forced=arg % 11 == 0)
            if verdict == "stall":
                continue     # the attempt's record is discarded
            if verdict == "park":
                policy.park(record)
            renamed.append(record)
            next_seq += 1
        elif move == "clear":
            owners = [r for r in renamed if r.own_ticket is not None]
            if owners:
                policy.on_tag_known(owners[arg % len(owners)])
        elif move == "complete":
            live = [r for r in renamed if not r.parked and not r.done]
            if live:
                record = live[arg % len(live)]
                record.done = True
                policy.on_tag_known(record)
        elif move == "release":
            # the engines release the oldest candidate; any one is legal
            force_seq = (policy.queue.head().seq
                         if force and len(policy.queue) else -1)
            cands, _ = scan_candidates(policy, now, boundary, force_seq)
            if cands:
                policy.release(cands[(arg >> 2) % len(cands)])
        elif move == "boundary":
            boundary = (NO_BOUNDARY if arg % 5 == 0
                        else arg % (next_seq + 3))
        elif move == "force":
            force = not force
        elif move == "touch":
            policy.on_dram_demand_access(now)
        elif move == "tick":
            now += 1 + (arg % 8 if arg % 5 else DRAM_LATENCY)

        force_seq = (policy.queue.head().seq
                     if force and len(policy.queue) else -1)
        for record in policy.queue:
            record.forced_release = False
        cands, want_forced = scan_candidates(policy, now, boundary,
                                             force_seq)
        want = cands[0] if cands else None
        got = policy.on_release_scan(now, boundary, force_seq)
        got_forced = [r for r in policy.queue if r.forced_release]
        assert got is want, (move, now, boundary, force_seq)
        assert got_forced == want_forced


def _without_released_tops(heap):
    """*heap* after the lazy drop every ready read performs."""
    heap = list(heap)
    while heap and not heap[0][1].parked:
        heappop(heap)
    return heap


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_ready_read_peeks_at_the_oldest_eligible(seed):
    """``next_release`` answers the oldest ready record that is urgent
    or older than the boundary, or the head when it is forced, and only
    peeks: both ready heaps are left as they were, less released tops
    (untouched when the queue is empty)."""
    rng = random.Random(seed)
    queue = LTPQueue(None, fifo_only=False)
    not_ready = []
    next_seq = 0
    for _ in range(rng.randrange(1, 120)):
        move = rng.choice(("park", "park", "mark_ready", "release"))
        if move == "park":
            record = make_record(next_seq)
            record.urgent = rng.random() < 0.4
            next_seq += 1
            queue.push(record)
            if rng.random() < 0.5:
                queue.mark_ready(record)
            else:
                not_ready.append(record)
        elif move == "mark_ready" and not_ready:
            record = not_ready.pop(rng.randrange(len(not_ready)))
            if record.parked:
                queue.mark_ready(record)
        elif move == "release" and len(queue):
            queue.remove(rng.choice(list(queue)))

        for boundary in (0, rng.randrange(next_seq + 2), NO_BOUNDARY):
            urgent = list(queue._ready_urgent)
            other = list(queue._ready_other)
            ready = sorted((entry for entry in urgent + other
                            if entry[1].parked
                            and (entry[1].urgent or entry[0] < boundary)),
                           key=lambda entry: entry[0])
            want = ready[0][1] if ready else None
            assert queue.next_release(-1, boundary) is want
            if len(queue):  # (an empty queue answers before any read)
                urgent = _without_released_tops(urgent)
                other = _without_released_tops(other)
            assert queue._ready_urgent == urgent
            assert queue._ready_other == other
        head = queue.head()
        if head is not None:
            head.forced_release = False
            assert queue.next_release(head.seq, 0) is head
            assert head.forced_release
