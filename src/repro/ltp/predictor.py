"""Two-level hit/miss predictor for long-latency loads (Appendix A).

"For variable-latency instructions (e.g., loads) we use a two-level
hit/miss predictor that accesses a history table with the last four
outcomes of the PC and then hashes these bits with the PC to access the
prediction table."

Prediction target: will this load be *long latency* (serviced beyond the
L2)?  The pattern table holds 2-bit saturating counters initialised to
"hit" so cold code is optimistically treated as short latency.
"""

from __future__ import annotations

from typing import Dict, Sequence


class HitMissPredictor:
    """Two-level (per-PC history, shared pattern table) miss predictor."""

    HISTORY_BITS = 4

    def __init__(self, table_bits: int = 12) -> None:
        if not 4 <= table_bits <= 20:
            raise ValueError("table_bits must be in [4, 20]")
        self.table_size = 1 << table_bits
        self._histories: Dict[int, int] = {}
        self._counters = bytearray([0] * self.table_size)  # 0 = strong hit
        self.lookups = 0
        self.predicted_misses = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        history = self._histories.get(pc, 0)
        return (pc * 0x9E3779B1 ^ (history << 7)) % self.table_size

    def predict_long_latency(self, pc: int) -> bool:
        """Predict whether the load at *pc* will be long latency."""
        self.lookups += 1
        miss = self._counters[self._index(pc)] >= 2
        if miss:
            self.predicted_misses += 1
        return miss

    def update(self, pc: int, was_long_latency: bool) -> None:
        """Train with the actual outcome (called at load completion)."""
        index = self._index(pc)
        counter = self._counters[index]
        prediction = counter >= 2
        if prediction != was_long_latency:
            self.mispredictions += 1
        if was_long_latency and counter < 3:
            self._counters[index] = counter + 1
        elif not was_long_latency and counter > 0:
            self._counters[index] = counter - 1
        history = self._histories.get(pc, 0)
        mask = (1 << self.HISTORY_BITS) - 1
        self._histories[pc] = ((history << 1) | int(was_long_latency)) & mask

    def warm(self, warmup_slice: Sequence,
             long_latency_flags: Sequence) -> None:
        """Train on a warmup slice's loads with their known outcomes."""
        update = self.update
        for dyn, flag in zip(warmup_slice, long_latency_flags):
            if dyn.is_load:
                update(dyn.pc, bool(flag))
