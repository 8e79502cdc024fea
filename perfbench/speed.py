"""The machine's current speed, from a fixed calibration kernel.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two within seconds, in wall and CPU time alike.  So while a
pass runs, a SIGALRM handler times this kernel every 50 ms, also in the
middle of long calls, and each call is reported at reference speed:

    time at reference speed = (measured time - handler time in the call)
                              × REFERENCE_NS / mean kernel time around the call

"Around the call" is every kernel run that starts within one interval
of the call.  Timing a 2 s command six times on a drifting machine, its
measured times spread over 40% of their median, scaled by kernel runs
only before and after it over 40 to 70%, and scaled as here over 10%.

The kernel uses only the standard library, never the package, so no
change to the package moves it.  It does the kind of work the package's
hot loops do: Fraction comparisons, dict updates keyed by Fractions and
a bitmask table.  REFERENCE_NS is a constant of the benchmark, close to
the kernel's median time on the machine of the first baseline; changing
it rescales every time metric.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 2_000_000
INTERVAL_S = 0.05

_VALUES = [Fraction(i % 13 + 1, i % 7 + 1) for i in range(400)]


def kernel() -> int:
    above = 0
    for x, y in zip(_VALUES, _VALUES[1:]):
        if x < y:
            above += 1
    counts = {}
    for x in _VALUES:
        counts[x] = counts.get(x, 0) + 1
    table = [0] * 1024
    for mask in range(1, 1024):
        low = mask & -mask
        table[mask] = max(table[mask ^ low], low.bit_length())
    return above + len(counts) + table[-1]


def calibrate() -> tuple:
    """(wall ns, cpu ns) of one kernel run, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - wall0, time.process_time_ns() - cpu0
    finally:
        if enabled:
            gc.enable()


def kernel_median_ns(runs: int = 8) -> float:
    """The kernel's median wall time over ``runs`` runs, after one to warm up."""
    calibrate()
    return statistics.median(calibrate()[0] for _ in range(runs))


class Speedometer:
    """Times the kernel every INTERVAL_S while in use; scales calls by it.

    Use as a context manager around the calls; ``scale`` after leaving.
    """

    def __init__(self):
        # (start ns, handler wall ns, handler cpu ns, kernel wall ns, kernel cpu ns)
        self.samples = []
        self._starts = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter_ns()
        cpu0 = time.process_time_ns()
        wall, cpu = calibrate()
        self.samples.append((start, time.perf_counter_ns() - start,
                             time.process_time_ns() - cpu0, wall, cpu))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._starts = [s[0] for s in self.samples]

    def scale(self, start_ns: int, wall_ns: int, cpu_ns: int) -> tuple:
        """A call's (wall, cpu) ns at reference speed, the handler's share removed."""
        starts = self._starts
        end_ns = start_ns + wall_ns
        inside = self.samples[bisect.bisect_left(starts, start_ns):
                              bisect.bisect_left(starts, end_ns)]
        wall_ns -= sum(s[1] for s in inside)
        cpu_ns -= sum(s[2] for s in inside)
        reach = int(INTERVAL_S * 1e9)
        near = self.samples[bisect.bisect_left(starts, start_ns - reach):
                            bisect.bisect_right(starts, end_ns + reach)]
        if not near:
            i = min(bisect.bisect_left(starts, start_ns), len(starts) - 1)
            near = [self.samples[i]]
        kernel_wall = statistics.fmean(s[3] for s in near)
        kernel_cpu = statistics.fmean(s[4] for s in near)
        return (wall_ns * REFERENCE_NS / kernel_wall,
                cpu_ns * REFERENCE_NS / max(kernel_cpu, 1))
