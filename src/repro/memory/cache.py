"""Set-associative cache model with true-LRU replacement.

The cache tracks *presence* only (tags, no data) — the functional executor
owns values.  Lookups and insertions operate on 64-byte block addresses.
Timing (hit latencies, fill completion) is owned by
:class:`repro.memory.hierarchy.MemoryHierarchy`; this class is purely the
tag/replacement state, which keeps it independently testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

BLOCK_BYTES = 64
BLOCK_SHIFT = 6


def block_of(addr: int) -> int:
    """Return the block address (block number) for a byte address."""
    return addr >> BLOCK_SHIFT


class Cache:
    """A set-associative, true-LRU, tag-only cache.

    Args:
        name: label for stats ("l1d", "l2", ...).
        size_bytes: total capacity.
        ways: associativity.
        block_bytes: line size (64 in all configurations used here).
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 block_bytes: int = BLOCK_BYTES) -> None:
        if size_bytes % (ways * block_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"ways*block ({ways}*{block_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (ways * block_bytes)
        # per set: dict block -> last-use stamp (monotonic counter)
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_index(self, block: int) -> int:
        return block % self.num_sets

    def lookup(self, block: int, update_lru: bool = True) -> bool:
        """Return True on hit.  Updates LRU state and hit/miss counters."""
        entry = self._sets[self._set_index(block)]
        if block in entry:
            self.hits += 1
            if update_lru:
                self._stamp += 1
                entry[block] = self._stamp
            return True
        self.misses += 1
        return False

    def probe(self, block: int) -> bool:
        """Presence check with no LRU update and no stat counting."""
        return block in self._sets[self._set_index(block)]

    def insert(self, block: int) -> Optional[int]:
        """Insert *block*; return the evicted block, if any."""
        entry = self._sets[self._set_index(block)]
        self._stamp += 1
        if block in entry:
            entry[block] = self._stamp
            return None
        victim: Optional[int] = None
        if len(entry) >= self.ways:
            victim = min(entry, key=entry.get)
            del entry[victim]
        entry[block] = self._stamp
        return victim

    def invalidate(self, block: int) -> bool:
        """Remove *block* if present; return True if it was present."""
        entry = self._sets[self._set_index(block)]
        return entry.pop(block, None) is not None

    def copy_from(self, other: "Cache") -> None:
        """Take *other*'s contents, LRU stamps and hit/miss counts (the
        geometries must match)."""
        self._sets = list(map(dict, other._sets))
        self._stamp = other._stamp
        self.hits = other.hits
        self.misses = other.misses

    def occupancy(self) -> int:
        """Total number of valid blocks."""
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
