"""A fixed reference kernel that reads how fast the machine runs right now.

The benchmark's 2-core virtual machine changes speed by up to +-30% over
tens of seconds (a pure-Python loop's 30 s medians range over 0.92-1.19 of
their overall median), in wall time and CPU time alike.  Timing this kernel
next to every command and dividing it out turns a command's wall time into
the wall time it takes at the machine's reference speed.  The kernel mixes
the work bandflow spends its time on: interpreter arithmetic, indexing and
arithmetic on small numpy arrays, tuple allocation and float formatting.  It
never changes with bandflow, so it reads the machine, not the code.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Median kernel time on the reference machine (2-core KVM guest, Python
# 3.11.7, numpy 2.4.6); scaled times are seconds at that speed.
REFERENCE_S = 0.025
# Median time of ``setup_probe.py --reference`` (importing numpy and the
# standard modules bandflow uses) on the reference machine.  That import
# stretches up to 2.4x in the machine's slow spells, far more than the
# kernel does, so set-up time is corrected by it instead (see
# ``run.measure_setup``).
REFERENCE_IMPORT_S = 0.10
ITERATIONS = 4000

_MATRIX = np.array([[2.0, 0.5j, 0.1, 0.0], [-0.5j, 1.0, 0.3, 0.2],
                    [0.1, 0.3, -1.0, 0.2j], [0.0, 0.2, -0.2j, -2.0]])


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel.

    The garbage collector is paused for the pass, so the objects a command
    left alive cannot slow the kernel down and make that command look fast.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        h = _MATRIX.copy()
        rows = []
        acc = 0.0
        for i in range(ITERATIONS):
            p = i % 3
            hpq = h[p, p + 1]
            col = h[:, p].copy()
            h[:, p] = 0.999 * col + 0.001 * h[:, p + 1]
            acc += math.atan2(hpq.imag, hpq.real) + abs(hpq)
            rows.append((i, p, f"{acc:.17g}"))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(wall_s: float, *kernel_s: float) -> float:
    """``wall_s`` at reference speed, from kernel times taken around it."""
    return wall_s * REFERENCE_S * len(kernel_s) / sum(kernel_s)
