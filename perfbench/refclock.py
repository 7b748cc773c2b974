"""Timing corrected for the host's CPU speed.

On a shared host the speed one process gets drifts by a quarter or more
within minutes, as the load of other tenants changes the clock rate and the
memory bandwidth left to it.  Raw wall times of the same code then differ
more between runs than the regressions the benchmark must catch.

So a fixed pure-Python probe measures the host's current speed: once just
before a timed call, every INTERVAL_S seconds during it (from a SIGALRM
handler) and once just after.  The call's time, less the time its probes
took, is scaled by REF_PROBE_S / (mean probe time): the result is the call's
time in seconds at the reference speed, the speed at which one probe takes
REF_PROBE_S.  The probe runs no stagebound code, so a change to the program
cannot move it, and it runs with the cyclic garbage collector off, so the
size of the program's heap cannot move it either.  Raw times stay in the
run record.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# The probe's time on a quiet 2-vCPU virtual machine (Python 3.11), where
# the benchmark was defined.  It only sets the scale; changing it or the
# probe makes results from before and after the change incomparable.
REF_PROBE_S = 0.0002
INTERVAL_S = 0.1
_KEYS = [("st", i % 97, i % 13) for i in range(500)]


def probe() -> float:
    """Seconds one fixed mix of tuple, dict and sort work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
            tuple(sorted(key[1:]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Times calls in raw seconds and in seconds at the reference speed.
    Installs a SIGALRM handler, so it must be created in the main thread."""

    def __init__(self) -> None:
        self.probes: list[float] = []  # of the current call
        self.means: list[float] = []  # mean probe time of each call
        self._probe_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self._probe_s += perf_counter() - start

    def call(self, fn):
        """Return (fn(), raw seconds, reference seconds); exceptions from
        fn propagate."""
        self.probes = [probe()]
        self._probe_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed -= self._probe_s
        self.probes.append(probe())
        self.means.append(statistics.fmean(self.probes))
        return result, elapsed, elapsed * REF_PROBE_S / self.means[-1]
