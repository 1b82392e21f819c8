"""Host speed: a fixed reference kernel timed between the benchmark's tasks.

The benchmark runs on shared virtual machines whose speed drifts while
other tenants load the cores they share.  On a shared 2-CPU Intel Xeon
machine the same task list ran up to 1.6x slower for phases of 20 s and
more, longer than a run, and CPU time drifted with wall time.  A task and a
fixed piece of work timed just before and after it slow down together, so
the ratio of their times holds still where each alone moves.

The reference does no ``npdshare`` work and never changes.  It mixes the
three kinds of work the program does: interpreted Python, numpy
elementwise arithmetic on small arrays, and small dense linear algebra.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one slice takes on that machine at its usual speed.  It only fixes
# the scale of the normalized times, which then read as seconds there.
SLICE_S = 0.0032

_MATRIX = np.eye(8) + 0.1
_VECTOR = np.ones(8)


def reference_slice() -> float:
    """Run one slice of the reference kernel; return its seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += (i * i) % 7
    values = np.arange(2000.0)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    for _ in range(60):
        np.linalg.lstsq(_MATRIX, _VECTOR, rcond=None)
    return time.perf_counter() - start
