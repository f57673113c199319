"""The host's current speed, sampled during the verdicts themselves.

On a shared host the same code runs up to twice as slow while a neighbour
contends for the core, and the contention switches on and off within a
fraction of a second.  While a ``Speed`` is entered, a wall-clock timer
interrupts the process every ``TICK_S`` and runs ``reference``: fixed work
of the same kind as the package's (Fraction arithmetic, dicts, complex
floats) that uses nothing from the package, so a change to the package
cannot move it.  A verdict's *calm time* is its wall time less the ticks
that ran inside it, scaled by ``TICK_CALM_MS`` over the mean tick time
inside it (or, for a verdict shorter than two ticks, of the ticks nearest
to it): the time it would have taken at the reference speed.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK_S = 0.01

# the time of ``reference`` on an uncontended core of the 2-vCPU x86_64 box
# (Intel Xeon, 2.0 GHz, Python 3.11.7) the benchmark was written on; any
# fixed value would do, this one keeps calm times close to wall times there
TICK_CALM_MS = 0.18

# a short verdict is scaled by the mean of this many ticks around it
NEAREST = 4


def reference():
    """Fixed work of about 0.18 ms on a calm core."""
    acc, seen = Fraction(1, 3), {}
    for k in range(1, 40):
        acc = acc * Fraction(k, k + 2) + 1
        seen[k % 7] = seen.get(k % 7, 0) + k
    z = 0j
    for k in range(60):
        z = z * (0.5 + 0.25j) + k
    return acc, z


class Speed:
    """Tick times in ms, in order, collected while entered."""

    def __init__(self):
        self.ms = []
        self._handler = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference()
        self.ms.append((perf_counter() - t0) * 1e3)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        if not self.ms:
            self._tick(None, None)

    def mark(self):
        """The number of ticks so far: take it before and after a span."""
        return len(self.ms)

    def net(self, seconds, k0, k1):
        """Wall time of a span between marks, less the ticks inside it."""
        return seconds - sum(self.ms[k0:k1]) / 1e3

    def calm(self, seconds, k0, k1):
        """Calm time of a span of ``seconds`` wall time between marks."""
        net = self.net(seconds, k0, k1)
        inside = self.ms[k0:k1]
        if len(inside) < 2:
            lo = max(0, min(k0 - NEAREST // 2, len(self.ms) - NEAREST))
            inside = self.ms[lo:lo + NEAREST]
        return net * TICK_CALM_MS / statistics.fmean(inside)
