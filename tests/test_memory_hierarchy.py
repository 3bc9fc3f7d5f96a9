"""Unit tests for the composed memory hierarchy."""

from dataclasses import replace

import pytest

from repro.memory.hierarchy import (MemoryHierarchy, MemParams,
                                    memory_geometry)


def make_hierarchy(**overrides):
    params = MemParams(**overrides)
    return MemoryHierarchy(params)


def test_l1_hit_latency():
    h = make_hierarchy()
    first = h.access_data(0x1000, now=0)
    assert first.level == "dram"
    h.advance(first.complete_cycle)
    again = h.access_data(0x1000, now=first.complete_cycle)
    assert again.level == "l1"
    assert again.complete_cycle == first.complete_cycle + 4


def test_dram_miss_total_latency():
    h = make_hierarchy()
    result = h.access_data(0x5000, now=0)
    assert result.level == "dram"
    # l3 tag check + dram latency
    assert result.complete_cycle == 36 + 190
    assert result.long_latency


def test_l2_hit_after_l1_eviction():
    h = make_hierarchy()
    result = h.access_data(0x9000, now=0)
    h.advance(result.complete_cycle + 1)
    h.l1d.invalidate(0x9000 >> 6)
    hit = h.access_data(0x9000, now=result.complete_cycle + 1)
    assert hit.level == "l2"
    assert hit.complete_cycle == result.complete_cycle + 1 + 12


def test_same_block_merges_with_outstanding_fill():
    """The pointer-chase bug regression: a same-block access while the
    fill is outstanding must complete with the fill, not 'hit' L1."""
    h = make_hierarchy()
    miss = h.access_data(0x2000, now=0)
    merged = h.access_data(0x2008, now=1)
    assert merged.merged
    assert merged.complete_cycle == miss.complete_cycle
    assert merged.long_latency


def test_mshr_limit_returns_none():
    h = make_hierarchy(mshrs=1)
    assert h.access_data(0x10000, now=0) is not None
    assert h.access_data(0x20000, now=0) is None
    assert h.stats.mshr_rejections == 1


def test_mshr_frees_after_completion():
    h = make_hierarchy(mshrs=1)
    first = h.access_data(0x10000, now=0)
    h.advance(first.complete_cycle)
    assert h.access_data(0x20000, now=first.complete_cycle) is not None


def _rejection_counters(h):
    return (h.stats.demand_accesses, h.stats.mshr_rejections,
            h.mshrs.full_rejections, h.l1d.misses)


def test_rejection_holds_until_version_moves():
    """A rejected access stays rejected while ``version`` is unchanged,
    and ``repeat_rejection`` counts a skipped retry exactly as the
    real retry would."""
    h = make_hierarchy(mshrs=1)
    first = h.access_data(0x10000, now=0)
    version = h.version
    assert h.access_data(0x20000, now=1) is None
    assert h.version == version
    before = _rejection_counters(h)
    for now in range(2, 40):
        h.advance(now)                     # no expiry due yet
        assert h.version == version
        assert h.access_data(0x20000, now=now) is None
    real = [after - start for after, start
            in zip(_rejection_counters(h), before)]
    assert real == [38] * 4
    for _ in range(38):
        h.repeat_rejection()
    skipped = [after - start for after, start
               in zip(_rejection_counters(h), before)]
    assert skipped == [76] * 4
    h.advance(first.complete_cycle)        # the MSHR frees: version moves
    assert h.version != version
    assert h.access_data(0x20000, now=first.complete_cycle) is not None


def test_commit_store_to_waiting_block_bumps_version():
    """A store commit can satisfy a rejected load long before any MSHR
    frees: a gate that waited for the next expiry would keep rejecting
    an access that now hits the L1."""
    h = make_hierarchy(mshrs=1)
    first = h.access_data(0x10000, now=0)
    assert h.access_data(0x20000, now=1) is None
    version = h.version
    h.commit_store(0x20008)                # same block, still no free MSHR
    assert h.version != version
    assert not h.mshrs.can_allocate()
    retry = h.access_data(0x20000, now=2)
    assert retry is not None and retry.level == "l1"
    assert retry.complete_cycle < first.complete_cycle
    # a store to a block already present changes nothing
    version = h.version
    h.commit_store(0x20000)
    assert h.version == version


def test_fill_and_merge_bump_version():
    h = make_hierarchy(mshrs=2)
    version = h.version
    h.access_data(0x10000, now=0)          # miss: L1D insert + MSHR
    assert h.version > version
    version = h.version
    h.access_data(0x10008, now=1)          # merge: L1D insert
    assert h.version > version
    result = h.access_data(0x30000, now=2)
    h.advance(result.complete_cycle)
    version = h.version
    h.access_data(0x30000, now=result.complete_cycle)   # L1 hit
    assert h.version == version


def test_outstanding_accounting():
    h = make_hierarchy()
    result = h.access_data(0x4000, now=0)
    assert h.outstanding_now() == 1
    h.advance(result.complete_cycle)
    assert h.outstanding_now() == 0
    avg = h.average_outstanding(result.complete_cycle)
    assert 0.9 < avg <= 1.0


def test_l1_hits_do_not_count_outstanding():
    h = make_hierarchy()
    first = h.access_data(0x4000, now=0)
    h.advance(first.complete_cycle + 10)
    h.access_data(0x4000, now=first.complete_cycle + 10)
    assert h.outstanding_now() == 0


def test_tag_known_before_completion():
    h = make_hierarchy()
    result = h.access_data(0x8000, now=0)
    assert result.tag_known_cycle < result.complete_cycle


def test_prefetcher_covers_streams():
    h = make_hierarchy()
    now = 0
    levels = []
    for i in range(64):
        result = h.access_data(0x100000 + i * 64, now=now)
        levels.append(result.level)
        now = result.complete_cycle + 1
        h.advance(now)
    # after training, later stream accesses should be covered (L2 or
    # merged with an in-flight prefetch rather than full DRAM misses)
    assert "l2" in levels[4:]
    assert h.stats.prefetches_issued > 0


def test_commit_store_installs_block():
    h = make_hierarchy()
    h.commit_store(0x7000)
    assert h.l1d.probe(0x7000 >> 6)
    assert h.l2.probe(0x7000 >> 6)


def test_instruction_path():
    h = make_hierarchy()
    miss = h.access_inst(1 << 40, now=0)
    assert miss.level == "dram"
    hit = h.access_inst(1 << 40, now=miss.complete_cycle)
    assert hit.level == "l1"


def test_functional_access_levels():
    h = make_hierarchy()
    assert h.functional_access(0x3000) == "dram"
    assert h.functional_access(0x3000) == "l1"


def test_validation_rejects_nonmonotonic_latencies():
    with pytest.raises(ValueError):
        MemParams(l2_latency=2).validate()


def test_load_latency_stats():
    h = make_hierarchy()
    h.access_data(0x6000, now=0)
    assert h.stats.load_count == 1
    assert h.stats.average_load_latency == 226


def _functional_state(h):
    caches = (h.l1i, h.l1d, h.l2, h.l3)
    return ([[list(entry.items()) for entry in c._sets] for c in caches],
            [(c._stamp, c.hits, c.misses) for c in caches],
            [(pc, vars(entry).copy())
             for pc, entry in h.prefetcher._table.items()],
            h.prefetcher.trains, h.prefetcher.issued, h.version)


def _warm(h, start=0):
    for i in range(start, start + 4000):
        # three strided streams, and scattered accesses from two PCs
        # that keep the 4-entry prefetch table replacing entries
        if i % 5:
            addr, pc = (i % 3) * (1 << 22) + (i // 3) * 72, i % 3
        else:
            addr, pc = (i * 7919 % 4096) * 64, 3 + i % 2
        h.functional_access(addr, is_store=i % 11 == 0, pc=pc)


def test_functional_copy_equals_a_fresh_warm_and_is_independent():
    params = MemParams(prefetch_table=4)
    other = replace(params, mshrs=2, l2_latency=20, dram_latency=300)
    assert memory_geometry(other) == memory_geometry(params)
    snapshot = MemoryHierarchy(params)
    _warm(snapshot)
    fresh = MemoryHierarchy(other)
    _warm(fresh)
    copy = snapshot.functional_copy(other)
    assert copy.params is other and copy.mshrs.capacity == 2
    assert _functional_state(copy) == _functional_state(fresh)
    before = _functional_state(snapshot)
    _warm(copy, start=4000)
    assert _functional_state(copy) != before
    assert _functional_state(snapshot) == before


def test_memory_geometry_names_every_functional_field():
    base = MemParams()
    for field, value in (("l1i_size", 16 * 1024), ("l1i_ways", 4),
                         ("l1d_size", 64 * 1024), ("l1d_ways", 4),
                         ("l2_size", 512 * 1024), ("l2_ways", 4),
                         ("l3_size", 2 * 1024 * 1024), ("l3_ways", 8),
                         ("prefetch_degree", 2), ("prefetch_table", 16)):
        assert memory_geometry(replace(base, **{field: value})) \
            != memory_geometry(base), field
    assert memory_geometry(replace(base, mshrs=4, l1_latency=3,
                                   dram_latency=250)) \
        == memory_geometry(base)
