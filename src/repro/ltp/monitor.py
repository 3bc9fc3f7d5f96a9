"""Timer-based DRAM monitor for LTP power management (Section 5.2).

"On a demand access that misses in L3, a timer (set to the DRAM latency)
is started or restarted, and LTP is enabled.  If the timer expires, LTP
is turned off."

The monitor supports exact accounting of enabled time over arbitrary
cycle spans so statistics stay correct when the pipeline jumps over idle
cycles.  The timer moves only on :meth:`DramTimerMonitor.touch`, so the
enabled time can also be integrated there, once per touch that extends
it, and read at run end (:meth:`DramTimerMonitor.enabled_cycles`).
"""

from __future__ import annotations

from typing import Callable


class DramTimerMonitor:
    """Enables LTP only while long-latency (DRAM) loads are present."""

    def __init__(self, dram_latency: int, mode: str = "auto") -> None:
        if mode not in ("auto", "on", "off"):
            raise ValueError("mode must be auto/on/off")
        if dram_latency <= 0:
            raise ValueError("dram_latency must be positive")
        self.mode = mode
        self.dram_latency = dram_latency
        self._enabled_until = 0
        #: cycles in ``[0, _enabled_until)`` the timer has covered
        self._covered = 0
        self.touches = 0

    def touch(self, now: int) -> None:
        """A demand access missed in L3: (re)start the timer."""
        self.touches += 1
        expiry = now + self.dram_latency
        until = self._enabled_until
        if expiry > until:
            self._covered += expiry - (now if now > until else until)
            self._enabled_until = expiry

    def is_enabled(self, now: int) -> bool:
        if self.mode == "on":
            return True
        if self.mode == "off":
            return False
        return now < self._enabled_until

    def predicate(self) -> Callable[[int], bool]:
        """:meth:`is_enabled`, minus the mode tests in "auto" mode (the
        mode is fixed per monitor)."""
        return self._running if self.mode == "auto" else self.is_enabled

    def _running(self, now: int) -> bool:
        return now < self._enabled_until

    def enabled_cycles(self, end: int) -> int:
        """Number of cycles in ``[0, end)`` during which LTP is enabled,
        for a run of cycles ``0..end-1`` that touched the monitor at
        nondecreasing cycles, none after *end*: the sum of
        :meth:`enabled_span` over the run's steps."""
        if self.mode == "on":
            return end
        if self.mode == "off":
            return 0
        past = self._enabled_until - end
        return self._covered - past if past > 0 else self._covered

    def enabled_span(self, start: int, end: int) -> int:
        """Number of cycles in [start, end) during which LTP is enabled."""
        if end <= start:
            return 0
        if self.mode == "on":
            return end - start
        if self.mode == "off":
            return 0
        overlap_end = min(end, self._enabled_until)
        return max(0, overlap_end - start)

    @property
    def expiry(self) -> int:
        """Cycle at which the timer currently expires (event hint)."""
        return self._enabled_until
