"""Host-speed calibration of the timed runs.

The shared host the benchmark runs on changes its CPU speed by tens of
percent within seconds (the same op can take 85 ms and then 140 ms a
few seconds later, with CPU time tracking wall time).  Every timed
figure is therefore scaled to a reference host speed: the timed loop
runs a fixed probe, a pure-Python kernel that uses no olie code, every
``PROBE_EVERY_S`` seconds, and each op's wall time is multiplied by
``REFERENCE_PROBE_S`` over the probe time measured around it.  A change
to olie moves the scaled figures fully; a change of host speed that
slows the probe and olie alike cancels out.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the probe's median time on the 2-vCPU Intel Xeon host (Python 3.11.7)
# the benchmark was built on, at its faster speed; scaled figures read
# as wall time on a host where the probe takes this long
REFERENCE_PROBE_S = 0.0020
# time between probes in a timed loop, and kernel runs per probe
PROBE_EVERY_S = 0.25
PROBE_SLICES = 3


def _kernel():
    """A fixed mix of the interpreter work olie does: ``Fraction``
    arithmetic, integer arithmetic mod a prime over lists, and dict
    updates.  Takes about 2 ms."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    rows = [[(i * j + 3) % 5 for j in range(14)] for i in range(14)]
    for r in range(14):
        for k in range(r + 1, 14):
            f = rows[k][r]
            rows[k] = [(a - f * b) % 5 for a, b in zip(rows[k], rows[r])]
    counts = {}
    acc = 0
    for i in range(1200):
        acc = (acc * 31 + i) % 10007
        counts[i % 97] = counts.get(i % 97, 0) + acc
    return total, rows, counts


def probe():
    """Median seconds of ``PROBE_SLICES`` runs of the kernel."""
    clock = time.perf_counter
    times = []
    for _ in range(PROBE_SLICES):
        start = clock()
        _kernel()
        times.append(clock() - start)
    return statistics.median(times)


def scale(probe_s):
    """The factor that turns wall time at a probe time into reference time."""
    return REFERENCE_PROBE_S / probe_s
