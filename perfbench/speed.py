"""Host-speed reference: a fixed piece of work that is not the program's,
timed between the benchmark's measurements.

On a shared virtual machine the same code runs up to ~1.7x slower, for
seconds to minutes at a time, while other guests load the host, and CPU
time counts the slowdown too: identical runs of the benchmark read 20-40%
apart.  So the query and reload times are reported at *reference speed*:
each measured time is multiplied by ``REF_MS / r``, where ``r`` is the CPU
time of the reference work measured around it.  The reference does
dictionary, set, sort and small numpy work, as the program's queries do,
so contention slows it about as much; it never calls the program, so a
change to the program moves the reported times as it moves the raw ones.  Raw times are printed in the run's meta line.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Sequence

import numpy as np

#: The reference's CPU time, in ms, on an uncontended core of the host the
#: benchmark was tuned on (a 2-vCPU KVM guest on a 2.0 GHz Xeon).  It only
#: sets the scale: a time at reference speed is what the measured one
#: would have been on that core.
REF_MS = 2.0

#: Reference samples per reading.  The reading is the fastest: the first
#: sample also pays for the caches the program's work just took over.
SAMPLES = 3

#: A segment's reading is the median of this many readings around it, half
#: from before its start and half from after its end: the reference's own
#: noise cancels, the host's swings (seconds to minutes) still show.
WINDOW = 16


class Reference:
    """The reference work and its readings."""

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        words = [f"w{rng.getrandbits(40):x}" for _ in range(20000)]
        self._set = set(words[:12000])
        self._probe = words[6000:9000]
        self._rank = {w: i for i, w in enumerate(words)}
        self._matrix = np.random.default_rng(seed).random((48, 48))

    def once(self) -> float:
        """CPU ms of one pass of the reference work."""
        c0 = time.thread_time()
        n = 0
        for w in self._probe:
            if w in self._set:
                n += self._rank[w]
        sorted(self._probe[:2000])
        for _ in range(20):
            self._matrix @ self._matrix
        set(self._probe[:2000]) & self._set
        return (time.thread_time() - c0) * 1000

    def reading(self) -> float:
        """Least CPU ms of :data:`SAMPLES` passes."""
        return min(self.once() for _ in range(SAMPLES))


class Gauge:
    """Reference readings along a timed loop, taken when :meth:`tick` finds
    ``every_s`` passed since the previous one.  What is measured between
    two readings belongs to one segment."""

    def __init__(self, ref: Reference, every_s: float) -> None:
        self.ref = ref
        self.every_s = every_s
        self.readings: list[float] = [ref.reading()]
        self.mark = time.perf_counter()

    @property
    def segment(self) -> int:
        """The segment being measured now."""
        return len(self.readings) - 1

    def tick(self, force: bool = False) -> None:
        """Read the reference, and so start a segment, if it is time."""
        if force or time.perf_counter() - self.mark >= self.every_s:
            self.readings.append(self.ref.reading())
            self.mark = time.perf_counter()

    def around(self, segment: int) -> float:
        return window_median(self.readings, segment)


def window_median(readings: Sequence[float], segment: int, window: int = WINDOW) -> float:
    """The reading for ``segment`` (which lies between readings ``segment``
    and ``segment + 1``): the median of up to ``window`` readings, half
    at or before its start and half at or after its end."""
    half = window // 2
    return statistics.median(readings[max(0, segment + 1 - half) : segment + 1 + half])


def at_reference(measured: float, reading: float) -> float:
    """``measured`` at reference speed, given the reference reading taken
    around it (any time unit)."""
    return measured * REF_MS / reading
