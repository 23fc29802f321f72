"""Host-speed normalisation.

On a shared machine the CPU speed one thread gets changes by up to 1.8x
from one second to the next, and the best speed it reaches drifts by
10% from one minute to the next, while a CPU-bound job still runs at
wall/CPU = 1.00.  No run length averages that out.  So a fixed reference
kernel, which is not part of the program, is timed on the same core just
before and just after every timed interval, and the interval is reported
scaled by REF_NOMINAL_S over the mean of the two reference timings:
seconds on a host that runs the kernel in REF_NOMINAL_S.

Measured over five 36 s runs of each workload on a contended host, the
spread (interquartile range over median) of the median job time was
26% raw and 3% scaled on track-drift, and 4% raw and 1.5% scaled on
line-fit.  Keeping only the jobs that ran while the kernel was fast did
worse (12-23%).
"""
from __future__ import annotations

import math
import time

import numpy as np

REF_NOMINAL_S = 0.5e-3
_X = np.linspace(0.0, 1.0, 801)


def reference_seconds() -> float:
    """Best of three timings of a fixed mix of small numpy calls and Python
    arithmetic, about 0.45 ms on an uncontended Intel Xeon core."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(40):
            acc += float(np.dot(_X, np.sin(_X * k)))
            for j in range(60):
                acc += j * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that turns a wall time bracketed by these reference timings
    into seconds at the nominal host speed."""
    return 2.0 * REF_NOMINAL_S / (ref_before + ref_after)
