"""Machine-speed calibration.

On a shared machine the CPU throughput a process gets switches between
states up to 2x apart that last from seconds to over a minute (see the
README). A median over a 20 s run cannot average that out, so every time the
benchmark reports is scaled by REFERENCE_S / (the time of a fixed
calibration kernel measured next to it, on the same CPU). The kernel mixes
interpreted arithmetic with small numpy calls, as the package does; it
never calls the package, so a change to the package cannot move it.
"""

import math
import statistics
import time

import numpy as np

# Calibration-kernel time on an otherwise idle core of the reference
# machine (2-vCPU Linux VM, Python 3.11.7, numpy 2.4.6). Reported times are
# in seconds at that speed.
REFERENCE_S = 0.0047

_A = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, -1.0]])


def _kernel():
    s = 0.0
    for i in range(1, 4000):
        s += math.sqrt(i) * 0.5 + math.atan2(i, 3.0)
    M = _A
    for _ in range(150):
        v = np.cross(M[0], M[1])
        M = M + 1e-9 * np.outer(v, v)
        s += float(np.linalg.det(M))
    return s


def measure() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale from times measured alongside these samples to reference seconds."""
    return REFERENCE_S / statistics.median(samples)


class Bracket:
    """Calibrates between operations, at least every `every_s` seconds of
    operation time, and scales each operation by the mean of the
    calibrations just before and just after it."""

    def __init__(self, every_s):
        self.every_s = every_s
        self.samples = [measure()]
        self.factors = []
        self._pending = 0
        self._since = 0.0

    def done(self, seconds, force=False):
        """Record one finished operation that took `seconds`."""
        self._pending += 1
        self._since += seconds
        if force or self._since >= self.every_s:
            self.flush()

    def flush(self):
        if self._pending:
            self.samples.append(measure())
            f = 2.0 * REFERENCE_S / (self.samples[-2] + self.samples[-1])
            self.factors.extend([f] * self._pending)
            self._pending, self._since = 0, 0.0
