"""Host-speed calibration: a fixed unit of work timed while the program runs.

The benchmark runs on a few cores of a shared host whose CPU speed switches
between regimes about 1.5x apart, for seconds to minutes at a time
(co-tenants on the same cores, frequency changes).  The process's CPU time
moves with its wall time, so neither of them removes the drift.  The time
metrics are therefore reported in *reference seconds*: a measured interval,
less the calibration work inside it, is scaled by ``REFERENCE_S / c``, where
``c`` is the mean time of this module's fixed work sampled through the
interval, on the same core, in the same process.  On a host where the work
takes ``REFERENCE_S`` a reference second is a second.

A ``Sampler`` runs the work from a ``SIGALRM`` handler every ``PERIOD_S`` of
wall time, so a pass of several seconds is sampled all through and a slow
spell that covers part of it weighs by its share of the pass.  The work never
touches the equiweyl package, so a change to the package cannot move it; the
raw seconds are kept beside every scaled value in the run record.

The work mixes the two things most of the program's time is made of:
interpreter dispatch (a pure-Python float loop) and small numpy calls
dominated by call overhead.  It allocates nothing and its data fit in the
core's private caches: a version with a 4 MB array pass read 12-22% slower
inside the program's passes than between them, as the program's own memory
use evicted the array, while this one reads within 5% of its value between
passes and tracks the host's drift more closely.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# time of one unit of work on the 2-vCPU Xeon VM that defined the benchmark,
# in its faster regime
REFERENCE_S = 0.0042
PERIOD_S = 0.1
REPEATS = 5

_SMALL = np.linspace(0.0, 1.0, 64)
_BUF = np.empty_like(_SMALL)


def _work():
    acc = 0.0
    for i in range(20000):
        acc += math.sin(i * 1e-3) * (i % 7)
    for _ in range(600):
        np.multiply(_SMALL, acc % 1.0, out=_BUF)
        np.cos(_BUF, out=_BUF)
        acc += float(_BUF.sum())
    return acc


def _timed_work():
    t0 = time.monotonic()
    _work()
    return time.monotonic() - t0


def calibrate():
    """Median seconds of ``REPEATS`` runs of the fixed work."""
    return statistics.median(_timed_work() for _ in range(REPEATS))


def scale(seconds, calibration):
    """``seconds`` measured while the work took ``calibration`` s, in reference seconds."""
    return seconds * REFERENCE_S / calibration


class Sampler:
    """Samples the fixed work every ``PERIOD_S`` in the main thread while started.

    ``samples`` holds every sample's seconds in order and ``spent`` their sum,
    so an interval's own time is its wall time less the growth of ``spent``.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            self._sample()

    def _sample(self):
        self._busy = True
        d = _timed_work()
        self.samples.append(d)
        self.spent += d
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Sample once and return where an interval starting now begins."""
        self._sample()
        return len(self.samples) - 1, self.spent, time.monotonic()

    def close(self, mark):
        """End the interval begun at ``mark`` with one more sample.

        Returns the interval's seconds less the sampling inside it, and the
        mean sample from ``mark`` through the closing one.
        """
        first, spent0, t0 = mark
        self._busy = True  # no tick between reading the clock and ``spent``
        t1 = time.monotonic()
        inside = self.spent - spent0
        self._sample()
        return t1 - t0 - inside, statistics.fmean(self.samples[first:])
