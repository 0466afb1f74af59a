"""Machine-speed reference for the benchmark's timings.

On a 2-vCPU VM on a shared host (Xeon, 2.1 GHz), the speed of the same
pass drifts by a quarter or more over tens of seconds, and the process's
CPU time drifts with it. So another clock does not steady the numbers, and
a longer run only partly does. Each timed pass is therefore bracketed by a
fixed reference loop whose mix resembles the workloads: Python-level
bookkeeping plus small dense linear algebra on complex matrices. A pass's
time divided by the reference loop's time around it, times REFERENCE_S, is
the pass time at the reference speed.

The reference loop uses nothing from cspursuit, so no change to the
package can move it.
"""
from __future__ import annotations

import time

import numpy as np

# reference-loop seconds on that VM in its fast state; it only sets the
# scale of the normalised times
REFERENCE_S = 0.006


def _reference_work(state: np.ndarray) -> float:
    acc = 0.0
    rows = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        rows[key] = rows.get(key, 0) + i
        acc += len(rows) * 1e-9
    a = state
    for _ in range(48):
        g = a.conj().T @ a
        b = np.linalg.lstsq(a, a[:, :4], rcond=None)[0]
        s = np.linalg.svd(a[:, :6], compute_uv=False)
        acc += float(np.abs(g).sum() + np.abs(b).sum() + s[0]) * 1e-12
    return acc


class Reference:
    """Times the reference loop; one instance per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.state = (rng.standard_normal((24, 16))
                      + 1j * rng.standard_normal((24, 16)))
        self.seconds = []
        self.measure()  # first call pays for lazy numpy set-up

    def measure(self) -> float:
        start = time.perf_counter()
        _reference_work(self.state)
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed

    @staticmethod
    def speed(before: float, after: float) -> float:
        """Factor that converts times measured between two reference loops
        to the reference speed."""
        return REFERENCE_S / ((before + after) / 2)
