"""Host-speed probe, so that timings can be scaled to a fixed reference speed.

On a virtual machine that shares its physical cores with other tenants, the
speed of one process swings by up to 40 % from one second to the next and
drifts over minutes; its CPU time swings with its wall time.  Raw wall times
of the same code, taken minutes apart, then differ by more than any bound
worth holding a change to.

``SpeedProbe.running`` starts a timer that interrupts the program every
``PERIOD_S`` and runs a probe: a fixed loop of element loads, stores,
branches and float arithmetic on numpy arrays, the interpreter work of the
pure-Python kernels, timing each call.  The probes are spread evenly over
the timed interval, so their mean time tracks the average speed of the host
over that interval.  ``reference_seconds`` takes an interval's probe time
out of its raw time and scales what is left by the probe's reference time
over its mean time: the time the program would have taken at the speed
where one probe takes its reference time.  The probe is the benchmark's own
code, so it is the same on every commit the benchmark compares.

Set-up is timed before numpy is imported, so its probe runs the same loop
on Python lists instead (``numpy=False``).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: seconds between two probes
PERIOD_S = 0.01
#: (loop steps, seconds per probe at the reference speed) for numpy arrays
#: and for lists; the reference is about the median on a 2-vCPU shared
#: x86-64 virtual machine under CPython 3.11
NUMPY_PROBE = (1000, 5.0e-4)
LIST_PROBE = (4000, 5.0e-4)


def make_probe(numpy: bool = True):
    """Return the probe function and its reference seconds."""
    if numpy:
        import numpy as np
        values, slots = np.arange(64, dtype=np.float64) / 64.0, np.zeros(8, np.int64)
        steps, ref_s = NUMPY_PROBE
    else:
        values, slots = [i / 64.0 for i in range(64)], [0] * 8
        steps, ref_s = LIST_PROBE

    def probe() -> float:
        total = 0.0
        for i in range(steps):
            slots[i & 7] = i
            if slots[i & 7] > 3:
                total += values[i & 63] * 0.5
        return total
    return probe, ref_s


class SpeedProbe:
    """Collects probe times while ``running``; ``mark`` and
    ``reference_seconds`` scale the interval between them."""

    def __init__(self, numpy: bool = True):
        self.probe, self.ref_s = make_probe(numpy)
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def reference_seconds(self, raw_s: float, mark: int) -> float:
        """``raw_s``, timed since ``mark``, less the probes run in it and
        scaled to the reference speed.  An interval too short to hold a
        probe is scaled by the mean of every probe so far."""
        taken = self.samples[mark:]
        basis = taken or self.samples or [self.ref_s]
        return (raw_s - sum(taken)) * self.ref_s * len(basis) / sum(basis)
