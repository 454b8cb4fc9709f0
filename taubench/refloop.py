"""The fixed reference loop that every benchmark timing is normalized by.

The loop is stdlib only and imports no mgt code, so a change to mgt cannot
change the loop's work. It runs with the cyclic garbage collector paused, so
a change that enlarges mgt's heap cannot slow the reference and hide its own
regression. Its mix (rational additions, integer products, dict and list
traffic) resembles the exact engine's inner loops, which is why it tracks the
speed swings of a shared machine that raw seconds do not survive.
"""

from __future__ import annotations

import gc
import os
import platform
import time
from fractions import Fraction

# Seconds the loop takes at the machine speed every normalized time refers to.
# A normalized time is what the op would have taken at that speed.
REF_NOMINAL = 0.006


def _work() -> int:
    check = 0
    for _ in range(6):
        acc = Fraction(0)
        table: dict[int, int] = {}
        prod = 1
        for k in range(1, 300):
            acc += Fraction(k, k * k + 1)
            prod = (prod * (2 * k + 1)) % 1000000007
            table[k] = prod
        check += acc.numerator % 97 + len(table)
    return check


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop, with the GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def machine_info() -> dict:
    """Where a result was measured: cores, versions and load at start."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }
