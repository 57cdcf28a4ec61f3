"""CPU time of timed work, scaled to a reference machine speed.

The vCPUs of a shared host change speed by up to 1.8x, and a slow or fast
spell can last from under a second to minutes, so raw times of the same work
differ between runs by more than any useful bound.  A fixed probe, which
does not touch fracdg, runs from a SIGPROF handler after every `INTERVAL_S`
of CPU time, interleaved with the timed work, so it sees the same
spells in the same proportions.  A piece of work then costs

    (its CPU time - the probes' CPU time) * REFERENCE_S / trimmed mean probe time

seconds at the reference speed: the speed at which one probe takes
`REFERENCE_S` seconds of CPU.  The probe evaluates Legendre derivatives on
small arrays with numpy.polynomial, the same mix of interpreter work and
small numpy calls as the timed work; of the probes tried (pure-Python
arithmetic, small numpy vector ops, this one) it tracked the work best.
CPU time is that of the main thread, which does all the work: the benchmark
pins BLAS to one thread.  (The process CPU clock is not used: read inside a
signal handler it lags.)
"""

import signal
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

# CPU seconds between two probes
INTERVAL_S = 0.02
# probe CPU time that defines the reference speed (about a quiet x86_64 vCPU's)
REFERENCE_S = 2.5e-4
# share of probe samples dropped at each end before averaging
TRIM = 0.1

_NODES = np.linspace(-0.95, 0.95, 20)
_UNIT = np.eye(7)


def _probe():
    # first derivatives of the Legendre basis at 20 nodes, column by column
    out = np.zeros((_NODES.size, len(_UNIT)))
    for k, coefficients in enumerate(_UNIT):
        out[:, k] = legendre.legval(_NODES, legendre.legder(coefficients, 1))
    return out


def trimmed_mean(values, trim=TRIM):
    values = sorted(values)
    k = int(len(values) * trim)
    kept = values[k:len(values) - k] or values
    return sum(kept) / len(kept)


@dataclass
class Timing:
    """One piece of timed work: wall and CPU seconds, probe samples taken during it."""


    wall: float
    cpu: float
    probes: list

    @property
    def scaled(self):
        """CPU seconds of the work alone, at the reference speed."""
        if not self.probes:
            return self.cpu
        net = self.cpu - sum(self.probes)
        return net * REFERENCE_S / trimmed_mean(self.probes)


class SpeedProbe:
    """While entered, runs the probe every `INTERVAL_S` of CPU time."""

    def __init__(self):
        # probe CPU times since entering, or since the start of the last `time`
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.thread_time()
        _probe()
        self.samples.append(time.thread_time() - start)

    def __enter__(self):
        _probe()  # warm the probe's own code paths before it is timed
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def time(self, fn):
        """(fn(), Timing) of one call of fn."""
        self.samples.clear()
        wall, cpu = time.perf_counter(), time.thread_time()
        result = fn()
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
        return result, Timing(wall, cpu, list(self.samples))

    def since_start(self):
        """Timing of everything from process start until now."""
        return Timing(None, time.thread_time(), list(self.samples))
