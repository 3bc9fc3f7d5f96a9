"""L2 stride/stream prefetcher (per-PC, configurable degree).

This is the "stride prefetcher, degree 4" of Table 1.  It observes the
demand-access stream arriving at the L2 (i.e., L1 misses), detects a
per-PC stride *direction* at cache-block granularity, and keeps a
prefetch frontier ``degree`` blocks ahead of the furthest demand block.

Working at block granularity with direction voting makes the detector
robust to the reordering an out-of-order core applies to the miss
stream — with a large window, the L1-miss addresses of a streaming load
arrive scrambled, which would defeat a naive exact-stride matcher (and
starve exactly the workloads the paper's prefetcher is meant to cover).

The prefetcher only *proposes* block addresses; the hierarchy decides
fill latencies and installs the lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.memory.cache import BLOCK_BYTES


@dataclass
class _StreamEntry:
    last_block: int
    direction_votes: int    # saturating: positive = ascending stream
    frontier: int           # furthest block prefetched so far
    confidence: int


class StridePrefetcher:
    """Per-PC stream detector issuing ``degree`` prefetches when confident."""

    VOTE_LIMIT = 4

    def __init__(self, degree: int = 4, table_size: int = 256,
                 confidence_threshold: int = 2) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if confidence_threshold < 1:
            raise ValueError("confidence_threshold must be >= 1")
        self.degree = degree
        self.table_size = table_size
        self.confidence_threshold = confidence_threshold
        self._table: Dict[int, _StreamEntry] = {}
        self.trains = 0
        self.issued = 0

    def copy_from(self, other: "StridePrefetcher") -> None:
        """Take *other*'s stream table (in its replacement order, each
        entry copied) and counters."""
        self._table = {pc: _StreamEntry(entry.last_block,
                                        entry.direction_votes,
                                        entry.frontier, entry.confidence)
                       for pc, entry in other._table.items()}
        self.trains = other.trains
        self.issued = other.issued

    def observe(self, pc: int, addr: int) -> List[int]:
        """Train on a demand access; return block addresses to prefetch."""
        self.trains += 1
        if self.degree == 0:
            return []
        block = addr // BLOCK_BYTES
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _StreamEntry(last_block=block,
                                           direction_votes=0,
                                           frontier=block, confidence=0)
            return []

        delta = block - entry.last_block
        entry.last_block = block
        if delta > 0:
            entry.direction_votes = min(entry.direction_votes + 1,
                                        self.VOTE_LIMIT)
        elif delta < 0:
            entry.direction_votes = max(entry.direction_votes - 1,
                                        -self.VOTE_LIMIT)
        if delta != 0 and abs(delta) <= self.degree:
            entry.confidence = min(entry.confidence + 1, 7)
        elif delta != 0:
            entry.confidence = max(entry.confidence - 1, 0)

        if entry.confidence < self.confidence_threshold:
            entry.frontier = block
            return []
        if entry.direction_votes > 0:
            direction = 1
        elif entry.direction_votes < 0:
            direction = -1
        else:
            return []

        # advance the frontier to `degree` blocks beyond the demand block
        target = block + direction * self.degree
        if direction > 0:
            start = max(entry.frontier + 1, block + 1)
            candidates = range(start, target + 1)
            entry.frontier = max(entry.frontier, target)
        else:
            start = min(entry.frontier - 1, block - 1)
            candidates = range(start, target - 1, -1)
            entry.frontier = min(entry.frontier, target)

        prefetches = [b for b in candidates if b >= 0]
        prefetches = prefetches[:self.degree]
        self.issued += len(prefetches)
        return prefetches
