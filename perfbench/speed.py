"""Timing at a fixed nominal speed of the host.

The benchmark runs on shared hosts where the speed one process gets from
its core changes by up to 40% from one second to the next, in stretches
that last from a second to minutes (other tenants on the same core).  CPU
time moves with it, so neither wall time nor CPU time of a run repeats.

A `Sampler` measures the host's speed all through a worker process: every
SAMPLE_EVERY_S of wall time a SIGALRM handler runs a fixed pure-Python
reference loop and records how long it took.  A timed interval is then
reported as its wall time less the handler's own pauses inside it, scaled
by NOMINAL_S over the mean reference time near the interval: the time the
interval would have taken on a host where the reference loop takes exactly
NOMINAL_S.  crosscap is interpreter-bound like the loop, so the two speed
up and slow down together; on a quiet host a nominal time is close to the
wall time.  The loop mixes integer arithmetic, set and dict lookups, and
small objects sorted by key, because on a 2-core x86 host such a mix
followed crosscap's own operations more closely than any one of them: the
spread of op time over reference time across 3-second buckets was 4.4%,
against 26% for the raw op time.  The reference loop runs no crosscap
code, so a change to crosscap moves the nominal times exactly as it moves
the wall times.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# the reference loop takes about this long on a quiet 2-core x86 host
NOMINAL_S = 0.001
SAMPLE_EVERY_S = 0.05
# reference samples this close to an interval describe its speed
WINDOW_S = 0.25
# ... and at least this many on each side of it, where the process has them
MIN_SIDE_SAMPLES = 2

_MEMBERS = frozenset(range(0, 1 << 15, 3))


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def reference_loop() -> int:
    total = 0
    for i in range(4000):
        total += i * i % 7
    members, table = _MEMBERS, {}
    for i in range(2000):
        if i * 3 in members:
            total += 1
        table[i & 63] = i
    counts: dict[int, int] = {}
    items = []
    for i in range(300):
        item = _Item(i, i ^ 0x55)
        key = (item.a * 31 + item.b) & 1023
        counts[key] = counts.get(key, 0) + (item.b >> 2).bit_count()
        items.append(item)
    items.sort(key=lambda item: item.b)
    return total + len(counts) + sum(item.a for item in items[::7])


class Sampler:
    """Reference-loop samples taken on a timer while the context is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "Sampler":
        for _ in range(3):
            reference_loop()  # let the interpreter specialise the loop
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused(self, start: float, end: float) -> float:
        """Time the handler took inside [start, end].  The handler runs
        between two bytecodes of the main thread, so each of its samples
        lies wholly inside or wholly outside an interval timed there."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def nominal(self, start: float, end: float) -> float:
        """Duration of the wall interval [start, end] at the nominal speed."""
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no reference samples were taken")
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        first = min(bisect_left(self.starts, start - WINDOW_S), max(0, lo - MIN_SIDE_SAMPLES))
        last = max(bisect_right(self.starts, end + WINDOW_S), min(n, hi + MIN_SIDE_SAMPLES))
        speed = sum(
            NOMINAL_S / (self.ends[i] - self.starts[i]) for i in range(first, last)
        ) / (last - first)
        return (end - start - self.paused(start, end)) * speed
