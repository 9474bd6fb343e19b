"""Machine-speed probe: rescales timings to a fixed reference speed.

The benchmark runs on a couple of virtual cores of a shared host.  The
neighbours' load changes how fast those cores run by a quarter or more over
minutes, and it moves process CPU time as much as wall time, so a raw job
time measures the host as much as the program.

While a probe is active, a SIGPROF timer interrupts the measured code every
`INTERVAL_S` of process CPU time, and the handler runs `kernel()` twice and
times the second run.  The first run refills the caches, so the timed one
depends on the host's speed and little on what the program did before it.
The kernel is fixed, stdlib-only Python in the style of the package's hot
loops (Fraction arithmetic on short coefficient lists, dicts keyed by
tuples), so the host slows it when it slows the program.  A timing is
reported as its own time, with the kernel runs taken out, times
`REFERENCE_S` over the mean timed kernel run during it: seconds at the speed
at which one kernel run takes `REFERENCE_S`.  Nothing in the kernel depends
on the package, so a faster program reads faster and a faster host does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02     # process CPU time between two samples
MIN_SAMPLES = 16      # samples added after the timed code if it was short
# Mean kernel time inside a census_z4 job on the 2-vCPU Xeon (KVM) machine
# the benchmark was calibrated on, so reference seconds read close to
# measured seconds there.
REFERENCE_S = 4.0e-4

_COEFFS = [[Fraction(i * j % 7 - 3, 1 + (i + j) % 5) for j in range(4)]
           for i in range(6)]


def kernel():
    """Fixed work: products of degree-3 polynomials with Fraction
    coefficients, accumulated in a dict keyed by (row, degree)."""
    acc = {}
    for i, a in enumerate(_COEFFS):
        b = _COEFFS[(i + 1) % len(_COEFFS)]
        for j, aj in enumerate(a):
            if aj:
                for k, bk in enumerate(b):
                    key = (i, j + k)
                    acc[key] = acc.get(key, 0) + aj * bk
    return acc


class SpeedProbe:
    """Context manager that samples the machine's speed while its body
    runs.  After exit, `spent_s` is the time the kernel runs took inside the
    body, and `scale()` converts the body's remaining seconds to reference
    seconds.  The kernel is pure computation, so its time is taken out of
    the body's CPU time too: a CPU clock read inside the signal handler
    does not advance on every host."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()   # untimed: refills the caches the body has just used
        mid = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self.spent_s += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        spent = self.spent_s
        # a body shorter than a few intervals gets its samples right after
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        self.spent_s = spent
        return False

    def scale(self) -> float:
        """Reference seconds per second of this body."""
        return REFERENCE_S / statistics.fmean(self.samples)
