"""Host speed reference of the erwalk benchmark.

The benchmark's host is a small VM on a shared machine, and its speed for
the same CPU-bound code drifts by 20-40% over tens of seconds to minutes.
A run's median wall time follows that drift, whatever the run's length:
one input timed for four minutes gave medians of 25-second windows whose
spread (IQR/median) was 0.23-0.29.  So every iteration times a fixed
pure-Python loop right before and right after its workload, and each
reported time is scaled to a host on which that loop takes REFERENCE_S.
On the same data the scaled medians spread 0.04-0.07.  The raw times are
kept in the run record.  Work that streams large numpy arrays is slowed
far less by the slow phases than that loop; so the workloads named in
`workloads.ARRAY_REFERENCE` scale their own times by a second reference,
a fixed numpy loop over arrays of the same size as theirs, instead.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: seconds each reference loop is scaled to (about the median of either on
#: a 2-core Intel Xeon VM); it only fixes the unit, not what a change can show
REFERENCE_S = 0.040
REFERENCE_ITERATIONS = 500_000


def reference_loop() -> float:
    """Seconds taken by a fixed loop of Python integer arithmetic."""
    start = perf_counter()
    x = 0
    for j in range(REFERENCE_ITERATIONS):
        x += j * j % 7
    return perf_counter() - start


ARRAY_SIZE = 1_000_000
ARRAY_PASSES = 6


def array_loop() -> float:
    """Seconds taken by a fixed numpy loop over three arrays of ARRAY_SIZE doubles."""
    a = np.linspace(0.0, 1.0, ARRAY_SIZE)
    b = a[::-1].copy()
    c = np.empty_like(a)
    start = perf_counter()
    for _ in range(ARRAY_PASSES):
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)
        np.cumsum(c, out=c)
    return perf_counter() - start


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that turns a time measured between two readings of one reference
    loop into reference seconds."""
    return REFERENCE_S / (0.5 * (ref_before + ref_after))
