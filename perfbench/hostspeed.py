"""Host speed, sampled through a run, to scale the run's timings.

The machines this benchmark runs on are shared.  On the recording machine
a fixed pure-Python task ran 1.4 to 1.7 times slower in some stretches
than in others, a bare interpreter took 40 ms to start in some stretches
and 60 ms in others, and the stretches last from seconds to minutes; every
timing of fuzzyrel moved with them.  Unscaled throughput of whole
30-second runs ranged over a factor of 1.6, which a run of a few dozen
seconds cannot average away.

A ``Reference`` times a fixed task that does not use fuzzyrel at regular
intervals through the timed loop.  ``scale(t)`` is the task's reference
time divided by the median of its samples within WINDOW_S of ``t``; a
duration measured at ``t``, multiplied by ``scale(t)``, is that duration
at the reference host speed.  A change to fuzzyrel cannot change the
task, so it moves a scaled timing by the same factor as the raw one.
"""

from __future__ import annotations

import bisect
import statistics
import time

WINDOW_S = 1.0


def python_task() -> float:
    """Fixed pure-Python work: dict updates, float arithmetic and a sort."""
    d: dict[int, float] = {}
    for i in range(4000):
        k = i * 7919 % 1009
        d[k] = d.get(k, 0.0) + i * 0.5
    return sum(v for _, v in sorted(d.items()))


class Reference:
    """Samples of one reference task, one at most every ``every_s`` seconds."""

    def __init__(self, name: str, task, reference_s: float, every_s: float):
        self.name, self.task = name, task
        self.reference_s, self.every_s = reference_s, every_s
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.task()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __call__(self, elapsed: float) -> None:
        """Take a sample if ``every_s`` has passed since the last one."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.every_s:
            self.sample()

    def scale(self, t: float) -> float:
        """Reference time over the median sample time within WINDOW_S of ``t``
        (the nearest sample if none is that close)."""
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        if lo == hi:
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                     key=lambda i: abs(self.starts[i] - t))
            hi = lo + 1
        return self.reference_s / statistics.median(self.times[lo:hi])

    def describe(self) -> str:
        return (f"host speed: {self.name} task median {statistics.median(self.times) * 1e3:.4g} ms"
                f" over {len(self.times)} samples, reference {self.reference_s * 1e3:g} ms")
