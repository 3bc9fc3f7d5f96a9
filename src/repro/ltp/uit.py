"""Urgent Instruction Table (UIT).

A PC-indexed, set-associative tag table: a PC present in the table is
classified Urgent.  Long-latency loads insert themselves at commit;
iterative backward dependency analysis inserts the producers of Urgent
instructions' sources at rename (Section 5.2).

``size=None`` gives the limit study's unlimited table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


def check_size(size: Optional[int], ways: int, name: str = "size") -> None:
    """Raise ``ValueError`` unless *size* (None: unlimited) fills sets."""
    if size is not None and (size <= 0 or ways <= 0 or size % ways != 0):
        raise ValueError(f"{name} must be a positive multiple of ways "
                         f"({ways}), got {size}")


class UrgentInstructionTable:
    """Set-associative table of Urgent PCs with LRU replacement."""

    def __init__(self, size: Optional[int] = 256, ways: int = 4) -> None:
        check_size(size, ways)
        self.size = size
        self.ways = ways
        self._unlimited: Set[int] = set()
        self._sets: List[Dict[int, int]] = []
        if size is not None:
            self.num_sets = size // ways
            self._sets = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.lookups = 0
        self.inserts = 0
        #: inserts that added a PC (and possibly evicted one); the
        #: other inserts only refresh an entry's LRU stamp
        self.fills = 0

    def contains(self, pc: int) -> bool:
        self.lookups += 1
        if self.size is None:
            return pc in self._unlimited
        entry = self._sets[pc % self.num_sets]
        if pc in entry:
            self._stamp += 1
            entry[pc] = self._stamp
            return True
        return False

    def insert(self, pc: int) -> None:
        self.inserts += 1
        if self.size is None:
            if pc not in self._unlimited:
                self._unlimited.add(pc)
                self.fills += 1
            return
        entry = self._sets[pc % self.num_sets]
        self._stamp += 1
        if pc in entry:
            entry[pc] = self._stamp
            return
        self.fills += 1
        if len(entry) >= self.ways:
            victim = min(entry, key=entry.get)
            del entry[victim]
        entry[pc] = self._stamp

    def occupancy(self) -> int:
        if self.size is None:
            return len(self._unlimited)
        return sum(len(s) for s in self._sets)
