"""Machine speed, sampled while a pass runs, for scaling its times.

The reference machine is a shared VM whose speed moves between levels about
1.5x apart, for seconds or minutes at a time.  A time measured there says as
much about the neighbours as about trinu.  So every timed interval is scaled
to a fixed reference speed: a short probe kernel of the benchmark's own
(interpreted integer arithmetic, float formatting and small numpy products,
the three kinds of work trinu does) runs between operations and, from a
timer signal, every ``PERIOD`` seconds during them.  The speed during an
interval is the mean of ``REFERENCE_PROBE_S / probe time`` over the probes
that bracket and fall inside it, and the interval's scaled time is its own
time, less the probes inside it, times that speed.  The probe never calls
trinu, so a change to trinu moves the scaled times and leaves the speed as
it was.
"""

import signal
import statistics
import time

import numpy as np

#: Probe time at the reference speed: the median of 1103 probes taken 0.05 s
#: apart over one minute on the reference machine (README.md).  Scaled times
#: read as seconds at that speed.
REFERENCE_PROBE_S = 0.0038
#: Seconds between probes taken from the timer signal during an operation.
PERIOD = 0.2

_MATRIX = np.eye(3) * 0.5
_FLOATS = [0.1 + 0.37 * i for i in range(2000)]


def probe():
    """Run the probe kernel once; returns ``(start, seconds)``."""
    start = time.perf_counter()
    s = 0
    for i in range(12_000):
        s += i * i % 7
    ",".join(format(v, ".12g") for v in _FLOATS)
    m = _MATRIX
    for _ in range(200):
        m = _MATRIX @ m + _MATRIX
        float(np.abs(m).sum())
    return start, time.perf_counter() - start


class Sampler:
    """Probes between operations and, while started, from a SIGALRM timer;
    ``samples`` holds ``(start, seconds)`` pairs in time order."""

    def __init__(self):
        self.samples = []
        self._probing = False

    def _probe(self):
        # A timer probe that fell due during another probe is skipped, so
        # no probe time holds another probe.
        if not self._probing:
            self._probing = True
            self.samples.append(probe())
            self._probing = False

    def _on_alarm(self, signum, frame):
        self._probe()

    def bracket(self):
        """Probe now, between operations."""
        self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(begin, end, samples):
    """Seconds ``[begin, end)`` took, less the probes inside it, at the
    reference speed.  ``samples`` must hold a probe that ends at or before
    ``begin`` and one that starts at or after ``end``."""
    before = max((s for s in samples if s[0] + s[1] <= begin), key=lambda s: s[0])
    after = min((s for s in samples if s[0] >= end), key=lambda s: s[0])
    inside = [s for s in samples if begin <= s[0] < end]
    speeds = [REFERENCE_PROBE_S / s[1] for s in (before, *inside, after)]
    busy = end - begin - sum(s[1] for s in inside)
    return busy * statistics.mean(speeds)
