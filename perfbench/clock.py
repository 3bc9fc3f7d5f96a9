"""Host time scaled to a fixed calibration loop's nominal speed.

The effective CPU speed of a shared sandbox swings by a third or more
within a second (a fixed pure-Python loop takes anywhere from 70 to
130 ms), and that swing is common to everything running in the
process.  A :class:`Clock` samples the speed every
``PERIOD_S`` from a ``SIGALRM`` handler that times a short fixed loop,
and advances by ``raw interval x NOMINAL_S / loop time`` (trapezoid
between samples); the sampling time itself is left out.  Scaled times
read as seconds at the speed on which ``NOMINAL_S`` was taken (2 vCPUs,
Python 3.11).  A program change moves them in proportion to how it moves
raw host time.
"""

from __future__ import annotations

import signal
import time
from typing import Any

#: iterations of the calibration loop
ROUNDS = 3000
#: the loop's median duration on a quiet run
NOMINAL_S = 0.0009
#: seconds between speed samples
PERIOD_S = 0.05


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes now."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(ROUNDS):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * 3 % 7
    return time.perf_counter() - start


class Clock:
    """Elapsed host time since creation, in seconds at nominal speed.

    Use as a context manager: entering starts the sampling timer,
    leaving stops it.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._speed = NOMINAL_S / calibrate()
        self._since = time.perf_counter()
        self._samples = 0
        self._busy = False

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum: int, frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            raw = time.perf_counter() - self._since
            speed = NOMINAL_S / calibrate()
            self._elapsed += raw * (self._speed + speed) / 2
            self._speed = speed
            self._since = time.perf_counter()
            self._samples += 1
        finally:
            self._busy = False

    def now(self) -> float:
        """Elapsed (scaled) seconds; safe against a sample mid-read."""
        while True:
            samples = self._samples
            value = (self._elapsed
                     + (time.perf_counter() - self._since) * self._speed)
            if samples == self._samples:
                return value
