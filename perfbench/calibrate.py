"""Machine-speed calibration, for timing on shared hosts.

On a host shared with other tenants, the core's speed changes by tens of
percent for seconds to minutes at a time, and CPU time slows down as much
as wall time does.  The benchmark therefore times a fixed pure-Python
kernel just before each measurement and reports the measurement rescaled
to the kernel's speed on an unloaded core:

    reported = wall seconds * CAL_REF_S / calibration()

A change to the package moves the reported time exactly as it moves the
wall time; a neighbour's load moves both the measurement and the kernel,
and cancels.  run.py also prints and saves the raw wall times.
"""

from __future__ import annotations

import math
from time import perf_counter

# calibration() on an unloaded core of the machine the bounds were set on
# (2-vCPU Intel Xeon, Python 3.11): its fastest readings there.
CAL_REF_S = 1.6e-3


def _kernel() -> float:
    start = perf_counter()
    total = 0.0
    for i in range(20_000):
        total += math.sin(i * 1e-3)
    return perf_counter() - start


def calibration() -> float:
    """Seconds for a fixed float loop (interpreter dispatch, calls, math):
    the median of three timings, so that one interrupt does not count."""
    return sorted(_kernel() for _ in range(3))[1]
