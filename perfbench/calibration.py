"""The benchmark's reference second.

On a shared 2-vCPU VM the CPU speed was seen to switch between states up
to 1.7x apart, each lasting seconds to minutes, so raw wall times of the
same work spread by more than any useful bound.  A run therefore times a
fixed piece of work, ``calibrate``, between its operations and reports
operation durations in reference seconds:

    reference seconds = wall seconds * REFERENCE / (recent calibration time)

``calibrate`` mimics the program's hot paths (Python loops over small numpy
arrays: an LU elimination and a power iteration) and never calls the
program, so a change to the program moves only the numerator.  Changing
this file or REFERENCE changes every operation timing the benchmark
reports.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# calibrate() time, in seconds, on a 2-vCPU x86-64 Linux VM (Intel Xeon),
# Python 3.11.7, numpy 2.4.6, in its usual state
REFERENCE = 2.6e-3
# wall seconds of a fresh `python3 -c "import numpy"` on the same VM; the
# reference for setup_s, which times other processes (see run.setup_seconds)
STARTUP_REFERENCE = 0.15
EVERY = 0.05  # seconds of operation time between two calibrations
WINDOW = 5  # a duration is scaled by the median of this many calibrations

_N = 6
_A = np.random.default_rng(0).uniform(size=(_N, _N)) + _N * np.eye(_N)


def calibrate() -> float:
    """Wall seconds of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(20):
        lu = _A.copy()
        for k in range(_N):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            lu[[k, p]] = lu[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        v = np.ones(_N)
        for _ in range(8):
            w = _A @ v
            v = w / float(w.max())
        acc = 0.0
        for i in range(60):
            acc += float(lu[i % _N, (i * 7) % _N])
    return time.perf_counter() - t0


class Clock:
    """Converts wall seconds to reference seconds at the current machine
    speed, calibrating again after every EVERY seconds of measured work."""

    def __init__(self):
        self.times = [calibrate() for _ in range(WINDOW)]
        self._since = 0.0

    def scale(self) -> float:
        """Reference seconds per wall second now."""
        return REFERENCE / statistics.median(self.times[-WINDOW:])

    def tick(self, seconds: float) -> float:
        """Account ``seconds`` of measured wall time; return them in
        reference seconds."""
        self._since += seconds
        if self._since >= EVERY:
            self.times.append(calibrate())
            self._since = 0.0
        return seconds * self.scale()
