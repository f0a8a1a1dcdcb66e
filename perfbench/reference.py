"""The machine's current speed, sampled while the program runs.

The benchmark runs on shared virtual machines whose speed flips between a
fast and a slow state (about 1.6x apart) several times a second, in CPU
time as much as in wall time, and the share of slow time drifts over
minutes.  A time measured there says as much about the neighbours as about
the program.  So the benchmark samples the speed inside the process that
runs the program, on the same thread: every ``PERIOD_S`` seconds a timer
signal interrupts the program and times one ``work()``.  Each stretch of
program time between two samples is then counted at the speed the sample
after it saw:

    scaled = sum(stretch * REF_S / sample)

``REF_S`` is the time ``work()`` takes at nominal speed, so a scaled time
reads in seconds at that speed.  The time spent in the samples themselves
(about 2%) is left out of it.  ``work()`` uses only built-in integers,
dicts and calls, never ``fractions`` or the package under test, so no
change to the program can move it.

On a 2-vCPU x86-64 VM with Python 3.11.7, eight runs of the same ``deep``
operation took 5.3 to 7.6 s of wall time and 8.2 to 9.0 s scaled.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds one ``work()`` takes at nominal speed.  On the VM above it took
# about 0.83 ms in the fast state and 1.3 ms in the slow one.
REF_S = 0.001
PERIOD_S = 0.05


def work() -> int:
    """A fixed mix of integer arithmetic, dict updates, gcds and calls."""
    table: dict[int, int] = {}
    acc = 1
    for i in range(1, 3000):
        k = i % 509
        acc = (acc * 31 + k) % 1_000_003
        table[k] = table.get(k, 0) + math.gcd(acc, i)
    return acc


def probe() -> float:
    """Seconds one ``work()`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Speedometer:
    """``with Speedometer() as sp: ...`` samples the speed while the block
    runs.  Afterwards ``sp.wall_s`` is the block's wall time without the
    samples, ``sp.scaled_s`` the same time at nominal speed, ``sp.probe_s``
    the time the samples took and ``sp.ref_s`` their median.

    It uses ``SIGALRM``, so it runs in the main thread only."""

    def __enter__(self) -> "Speedometer":
        self.samples: list[tuple[float, float]] = []  # (stretch, sample)
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        sample = probe()
        end = time.perf_counter()
        self.samples.append((start - self._last, sample))
        self.probe_s += end - start
        self._last = end

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # the last stretch, at the speed seen right after it
        self.end = self._last

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.probe_s

    @property
    def scaled_s(self) -> float:
        return sum(stretch * REF_S / sample for stretch, sample in self.samples)

    @property
    def ref_s(self) -> float:
        ordered = sorted(sample for _, sample in self.samples)
        return ordered[len(ordered) // 2]
