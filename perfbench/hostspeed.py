"""Host-speed calibration: a fixed loop timed between operations.

The benchmark's host changes speed by up to a third for tens of
seconds to minutes at a time, so raw wall times of one run depend on
when it ran.  The harness times this loop before the first operation
of a pass and after every operation, and scales each operation's wall
time by ``REF_S`` over the mean of the two loop times around it.  The result is
the operation's time on a host that runs the loop in exactly ``REF_S``:
a program change moves it as it moves wall time, a change of host speed
does not.  The loop touches nothing of zxel's.
"""

from __future__ import annotations

import time

import numpy as np

# seconds the loop takes on the reference host; a fixed unit, never measured
REF_S = 1.25e-3

_A = np.arange(64, dtype=complex).reshape(8, 8)


def calib_s() -> float:
    """Wall seconds of a fixed pure-Python and numpy loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    for _ in range(100):
        np.einsum("ij,jk->ik", _A, _A)
    return time.perf_counter() - t0


def scaled(wall_s: float, calib_before: float, calib_after: float) -> float:
    """``wall_s`` at reference host speed."""
    return wall_s * REF_S / (0.5 * (calib_before + calib_after))
