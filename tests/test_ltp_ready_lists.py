"""The LTP ready lists against a linear-scan oracle.

``LTPController.release_candidates`` reads the queue's ready lists,
which ``park`` and ``on_tag_known`` update as tickets clear, instead of
testing every parked record each cycle.  This property test drives a
controller through random renames (parking, dispatching and stalling),
ticket clears, completions, releases, boundary and force changes and
DRAM-timer monitor flips, and after every move checks the indexed
answer (``limit`` 1 and 4) against a walk over the whole queue that
applies the wakeup rule record by record, including which record gets
``forced_release``.

Hypothesis picks the controller configuration and a seed; the per-seq
oracle bits and the move script come from ``random.Random(seed)``,
because uniformly drawn scripts reach the rare interleavings (a
ticket clearing while the monitor drains the queue, an urgent and a
non-urgent record ready at once) far more often than shrink-friendly
small ones.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ltp.config import LTPConfig
from repro.ltp.controller import NO_BOUNDARY, LTPController

from tests.test_ltp_controller import make_oracle, make_record

N_SEQS = 120
#: the monitor stays on this long after a "touch"; most ticks are
#: shorter, so runs see it flip both ways
DRAM_LATENCY = 30
MOVES = ("rename", "rename", "rename", "clear", "clear", "complete",
         "release", "release", "boundary", "force", "touch", "tick")


def scan_candidates(controller, now, boundary_seq, force_seq, limit):
    """The wakeup rule applied to every parked record, oldest first."""
    draining = not controller.is_enabled(now)
    eager = controller.config.wakeup_policy == "eager"
    found, forced = [], []
    for record in controller.queue:
        if len(found) >= limit:
            break
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
    controller = LTPController(config, dram_latency=DRAM_LATENCY,
                               oracle=oracle)
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
            controller.observe_rename(record)
            verdict = controller.decide(record, now,
                                        memdep_forced=arg % 11 == 0)
            if verdict == "stall":
                continue     # the attempt's record is discarded
            if verdict == "park":
                controller.park(record)
            renamed.append(record)
            next_seq += 1
        elif move == "clear":
            owners = [r for r in renamed if r.own_ticket is not None]
            if owners:
                controller.on_tag_known(owners[arg % len(owners)])
        elif move == "complete":
            live = [r for r in renamed if not r.parked and not r.done]
            if live:
                record = live[arg % len(live)]
                record.done = True
                controller.on_tag_known(record)
        elif move == "release":
            # the engines release the oldest candidate; any one is legal
            force_seq = (controller.queue.head().seq
                         if force and len(controller.queue) else -1)
            cands = controller.release_candidates(now, boundary,
                                                  force_seq, 1 + arg % 4)
            if cands:
                controller.release(cands[(arg >> 2) % len(cands)])
        elif move == "boundary":
            boundary = (NO_BOUNDARY if arg % 5 == 0
                        else arg % (next_seq + 3))
        elif move == "force":
            force = not force
        elif move == "touch":
            controller.on_dram_demand_access(now)
        elif move == "tick":
            now += 1 + (arg % 8 if arg % 5 else DRAM_LATENCY)

        force_seq = (controller.queue.head().seq
                     if force and len(controller.queue) else -1)
        for limit in (1, 4):
            for record in controller.queue:
                record.forced_release = False
            want, want_forced = scan_candidates(controller, now, boundary,
                                                force_seq, limit)
            got = controller.release_candidates(now, boundary, force_seq,
                                                limit)
            got_forced = [r for r in controller.queue if r.forced_release]
            assert [r.seq for r in got] == [r.seq for r in want], \
                (move, limit, now, boundary, force_seq)
            assert all(a is b for a, b in zip(got, want))
            assert got_forced == want_forced
