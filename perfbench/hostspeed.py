"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed of one core drifts by up to about 1.5x, in
stretches from a fraction of a second to minutes, and a whole run can fall
into a slow stretch.  ``SpeedProbe`` measures that drift while the program
runs: every ``PERIOD_S`` a timer signal interrupts the program and times
``probe()``, a fixed pure-Python loop (integer arithmetic and dict lookups on
tuple keys, as in the program's word and polynomial code, keeping no
object alive).  Each stretch of program time between two probes is rescaled by
``NOMINAL_S`` over the mean time of the probes around it, so a timing reads
as it would at the host speed where ``probe()`` takes ``NOMINAL_S``.  The
probes' own time is left out.

The probe is benchmark code, so a change to the program cannot speed it up;
it touches a few kilobytes, so the program's working set barely slows it.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.005
# Time of probe() in the fast state of a 2-vCPU Xeon (Sapphire Rapids) VM
# under CPython 3.11: a round figure between the lower deciles of its
# duration over one minute, 0.21 and 0.30 ms, measured at two times.  The
# probes take about 5% of a run.
NOMINAL_S = 0.00025
_ROUNDS = 20

_KEYS = tuple((i % 3, i % 5, i % 7) for i in range(105))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def probe():
    total = 0
    for r in range(_ROUNDS):
        for key in _KEYS:
            total += (_TABLE[key] * r + 7) % 11
    return total


@dataclass
class Timing:
    wall_s: float      # program wall time, probes left out
    cpu_s: float       # program CPU time (user + sys), probes left out
    scaled_wall_s: float
    scaled_cpu_s: float


class SpeedProbe:
    """Times calls with the host-speed correction.  Use as a context manager:
    the timer signal's handler is installed on entry and restored on exit."""

    def __init__(self):
        self._marks = []   # (wall start, wall end, cpu time) of each probe

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum=None, _frame=None):
        c0, t0 = time.process_time(), time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self._marks.append((t0, t1, time.process_time() - c0))

    def time(self, fn, *args):
        """Call ``fn(*args)``; returns (its result, ``Timing``)."""
        self._marks = []
        c0, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1, c1 = time.perf_counter(), time.process_time()
        # A signal already raised when the timer stopped may still be handled
        # after t1; that probe is not part of the call.
        marks = [m for m in self._marks if m[1] <= t1]
        if marks:
            # Stretch k runs from the end of probe k-1 to the start of probe k.
            durations = [end - start for start, end, _ in marks]
            edges = [t0, *(x for start, end, _ in marks for x in (start, end)), t1]
            stretches = [(edges[2 * k + 1] - edges[2 * k],
                          statistics.fmean(durations[max(k - 1, 0):k + 1]))
                         for k in range(len(marks) + 1)]
        else:
            self._tick()  # shorter than one period: probe once, just after
            start, end, _ = self._marks[0]
            stretches = [(t1 - t0, end - start)]
        wall = sum(length for length, _ in stretches)
        cpu = c1 - c0 - sum(c for _, _, c in marks)
        scaled = sum(length * NOMINAL_S / probe_s for length, probe_s in stretches)
        factor = scaled / wall if wall > 0 else 1.0
        return result, Timing(wall, cpu, scaled, cpu * factor)
