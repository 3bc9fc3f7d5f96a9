"""Branch direction predictor: gshare with a global history register.

The trace-driven pipeline knows every branch's actual direction, so the
predictor's only job is deciding *whether the front end would have been
redirected* — a mispredict stalls fetch until the branch resolves plus a
refill penalty.  Targets come from the trace (a perfect BTB), which is
the standard trace-driven simplification.
"""

from __future__ import annotations


class GsharePredictor:
    """Classic gshare: PC xor global-history indexes 2-bit counters."""

    def __init__(self, history_bits: int = 12) -> None:
        if not 1 <= history_bits <= 24:
            raise ValueError("history_bits must be in [1, 24]")
        self.history_bits = history_bits
        self.table_size = 1 << history_bits
        self._counters = bytearray([2] * self.table_size)  # weakly taken
        self._history = 0
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & (self.table_size - 1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at *pc*; train with the actual outcome.

        Returns True when the prediction was correct.
        """
        self.lookups += 1
        index = self._index(pc)
        counter = self._counters[index]
        prediction = counter >= 2
        if taken and counter < 3:
            self._counters[index] = counter + 1
        elif not taken and counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & (
            self.table_size - 1)
        correct = prediction == taken
        if not correct:
            self.mispredicts += 1
        return correct

    def copy(self) -> "GsharePredictor":
        """An independent predictor in this one's trained state."""
        copy = GsharePredictor(self.history_bits)
        copy._counters = bytearray(self._counters)
        copy._history = self._history
        copy.lookups = self.lookups
        copy.mispredicts = self.mispredicts
        return copy

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups
