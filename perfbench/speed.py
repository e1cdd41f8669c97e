"""Machine-speed probe: how fast the CPU is running right now.

On shared-core virtual machines the speed a process gets swings with its
neighbours' load.  On the two-core machine this benchmark was tuned on, a
fixed pure-Python loop took 13 ms in some seconds and 19.5 ms in others,
with its CPU time moving the same way (so it is not waiting for a core).
Left alone, that swing decides a run's figures more than the program does.

The probe times a small fixed piece of work between operations, outside
their timed intervals: a Python loop, dictionary lookups, a pass over a
list of tuples and a few small numpy calls — the kinds of work the engines
do.  Over two-second windows its time tracked a row-store query's with a
correlation of 0.94 and a log-log slope near 1; a numpy matrix product or a
pass over a large list reacted to the swings by less and were left out.  An
operation's *slowdown* is the median probe time in a window around it over
:data:`REFERENCE_SECONDS`, and the benchmark divides measured times by it,
so its times are milliseconds of a machine running at the reference speed.
The probe allocates no containers that outlive it, so it does not shift the
program's garbage collections, and it touches none of the program's data.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Probe time on the reference machine at its faster speed; the unit of
#: every normalised time (a slowdown of 1.0 means "as fast as that").
REFERENCE_SECONDS = 0.001

#: Minimum gap between two probes taken between operations.
MIN_INTERVAL_SECONDS = 0.05

#: Probes within this many seconds of an interval describe its speed.
WINDOW_SECONDS = 0.5


# The probe's inputs, built once at import — before the program has run —
# so that their memory layout is the same in every pass of a run: built
# afresh after the untraced pass of a traced run, in the heap that pass
# left, they made the probe 25–60 % slower than in the first pass.
# Only atomic values inside, so the collector stops tracking them; never
# mutated.
_TABLE = {f"key{i}": i for i in range(5000)}
_KEYS = tuple(_TABLE)
_PAIRS = tuple((i, float(i)) for i in range(5000))
_VECTOR = np.random.default_rng(0).random(300)


class SpeedProbe:
    """Times the fixed probe work and reports slowdowns for time intervals."""

    def __init__(self):
        self.started: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i * i % 7
        for key in _KEYS:
            total += _TABLE[key]
        for _index, value in _PAIRS:
            total += value
        for _ in range(25):
            total += float(np.argsort(_VECTOR)[0] + _VECTOR.sum())
        self.seconds.append(time.perf_counter() - started)
        self.started.append(started)

    def maybe_sample(self) -> None:
        """Probe unless the last probe is more recent than the minimum gap."""
        if not self.started or time.perf_counter() - self.started[-1] >= MIN_INTERVAL_SECONDS:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time near ``[start, end]`` over the reference time.

        Uses the probes within :data:`WINDOW_SECONDS` of the interval, and
        at least the two nearest on each side.
        """
        low = bisect.bisect_left(self.started, start - WINDOW_SECONDS)
        high = bisect.bisect_right(self.started, end + WINDOW_SECONDS)
        nearest_before = bisect.bisect_left(self.started, start)
        nearest_after = bisect.bisect_right(self.started, end)
        low = min(low, max(0, nearest_before - 2))
        high = max(high, min(len(self.started), nearest_after + 2))
        return statistics.median(self.seconds[low:high]) / REFERENCE_SECONDS

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / REFERENCE_SECONDS
