"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts in phases lasting
seconds to minutes. On the 2-CPU machine the baseline was taken on, the
same CLI call took anywhere from 1x to 2.4x its quiet-period time, and the
medians of whole 8-second runs had an IQR/median of 0.44 over ten runs. A
fixed kernel that never changes with the program, mixing what bestexec
spends its time on (small-object allocation, dict updates, float arithmetic
in Python and small NumPy operations), is timed between blocks of CLI
calls. Each call's time is multiplied by NOMINAL_S over the kernel time
around it, which gives the time the call would take at the reference
machine's quiet-period speed. Over the same ten runs, the spread of the
scaled medians was 0.04.
"""

from __future__ import annotations

import statistics
import time

# kernel time on the reference machine (2 vCPU Intel Xeon, Python 3.11.7,
# NumPy 2.4.6) in a quiet period; scaled timings read as times there
NOMINAL_S = 0.0022


class _Rec:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        self.a = a
        self.b = b
        self.c = c


def _step(rec: _Rec, x: float) -> _Rec:
    return _Rec(rec.a * 0.5 + x, rec.b + x, rec.c)


def kernel() -> float:
    """A fixed amount of mixed Python and NumPy work; returns a checksum."""
    import numpy as np  # not at module level: the worker times bestexec's first numpy import

    table = {}
    for i in range(3000):
        table[(i * 7919) % 1024] = str(i)
    rec = _Rec(0.0, 0.0, 0.0)
    recs = []
    for i in range(2400):
        rec = _step(rec, i * 1e-3)
        recs.append(rec)
        if len(recs) > 200:
            recs = []
    a = np.ones(20)
    acc = 0.0
    for _ in range(240):
        a = a * 0.5 + 1.0
        acc += float(a @ a)
        np.asarray([1.0, 2.0, acc])
    return acc + rec.a + len(table)


def speed() -> float:
    """NOMINAL_S over the median time of three runs of the kernel: below 1
    when the machine runs slower than the reference."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return NOMINAL_S / statistics.median(times)
