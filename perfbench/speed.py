"""Host speed, sampled while a pass runs.

On a shared host the speed of a CPU changes from one tenth of a second to
the next, by up to a factor of two, and the CPUs of a 2-core host change
independently.  The worker therefore pins itself to one CPU, and a
`Speedometer` thread in it times a fixed pure-Python reference loop
(integer arithmetic and dict stores, like the package's own work) every
PERIOD_S.  The sampler holds the interpreter lock while its loop runs, so
the worker subtracts that time from the ops it interrupted, and divides
each op's time by the speed factor of the samples around it: mean loop
time / REF_LOOP_S.
"""

from __future__ import annotations

import bisect
import threading
import time

PERIOD_S = 0.05
WINDOW_S = 0.1  # samples this close to an op count for its speed factor
LOOP_N = 4000
# the loop's median time on the 2-core x86-64 host where the benchmark was defined
REF_LOOP_S = 0.00106


def reference_loop() -> None:
    d, acc = {}, 0
    for i in range(LOOP_N):
        a = (i * i + 12345) % 1000003
        d[a & 255] = a
        acc += a // 7


class Speedometer:
    """A sampler thread on the worker's CPU."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter()))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling; the samples are only read after this."""
        self._stop.set()
        self._thread.join()
        self._sample()
        self.starts = [a for a, _ in self.samples]
        self.ends = [b for _, b in self.samples]

    def busy(self, a: float, b: float) -> float:
        """Time the samplers spent inside the interval [a, b]."""
        total = 0.0
        # a sample lasts milliseconds, so none that started over 1 s
        # before the interval reaches into it
        i = bisect.bisect_left(self.starts, a - 1.0)
        while i < len(self.starts) and self.starts[i] < b:
            total += max(0.0, min(b, self.ends[i]) - max(a, self.starts[i]))
            i += 1
        return min(total, b - a)

    def factor(self, a: float, b: float) -> float:
        """Speed factor of the samples within WINDOW_S of [a, b], or of the
        nearest samples; above 1 means slower than the reference."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        loops = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        return sum(loops) / len(loops) / REF_LOOP_S
