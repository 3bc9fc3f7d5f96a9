"""Initial-memory builders for the synthetic kernels.

All builders are deterministic given a seed so traces — and therefore
every experiment — are exactly reproducible.
"""

from __future__ import annotations

import random
from array import array
from typing import Tuple

from repro.isa.executor import WordImage

WORD = 8
BLOCK = 64

#: disjoint 64 MB data regions; kernels index regions by slot
REGION_BYTES = 64 * 1024 * 1024


def region_base(slot: int) -> int:
    """Byte base address of data region *slot* (slot 0 starts at 256 MB)."""
    if slot < 0:
        raise ValueError("slot must be >= 0")
    return (4 + slot) * REGION_BYTES


def index_array(base: int, length: int, max_index: int,
                seed: int) -> WordImage:
    """An array of *length* random word indices in [0, max_index)."""
    rng = random.Random(seed)
    return WordImage([(base, [rng.randrange(max_index)
                              for _ in range(length)])])


def sequential_array(base: int, length: int, start: int = 0,
                     step: int = 1) -> WordImage:
    """An array of *length* words holding an arithmetic sequence."""
    return WordImage([(base, [start + i * step for i in range(length)])])


def linked_ring(base: int, nodes: int, region_blocks: int,
                seed: int) -> Tuple[WordImage, int]:
    """A circular linked list of *nodes* nodes at random block addresses.

    Each node occupies its own cache block inside a region of
    *region_blocks* blocks: word 0 holds the byte address of the next
    node, word 1 holds a payload value.  Returns (memory, head_address),
    the memory one dense run over the region.  Traversal therefore
    produces one irregular block access per node — the pointer-chasing
    pattern of astar-like code.
    """
    if nodes > region_blocks:
        raise ValueError("need at least one block per node")
    rng = random.Random(seed)
    block_ids = rng.sample(range(region_blocks), nodes)
    addresses = [base + b * BLOCK for b in block_ids]
    words = array("q", bytes(region_blocks * BLOCK))
    for i, block in enumerate(block_ids):
        words[block * (BLOCK // WORD)] = addresses[(i + 1) % nodes]
        words[block * (BLOCK // WORD) + 1] = i * 3 + 1
    return WordImage([(base, words)]), addresses[0]
