"""The machine's current speed, sampled while the benchmark runs.

The machine the benchmark was tuned on shares its cores with other
tenants.  A fixed pure-Python loop timed back to back there took anywhere
from 1x to 1.7x its fastest time, in phases lasting from a fraction of a
second to minutes, and process CPU time moved with wall time: the cores
run slower, the process is not descheduled.  A raw timing therefore
measures the neighbours as much as the program.

`SpeedProbe` times a short fixed loop (`probe_loop`) every
PROBE_INTERVAL_S, from a SIGALRM handler, while ops run.  An op's time at
reference speed is its measured time, less the time spent in the probe,
scaled by REFERENCE_LOOP_S over the mean loop time seen during the op.
The loop does not touch sgp, so a change to sgp moves the op time and
leaves the scale alone.
"""

import signal
import statistics
import time

PROBE_ITERATIONS = 10_000
# the probe loop's time at the reference speed (about this machine's fastest)
REFERENCE_LOOP_S = 0.0006
PROBE_INTERVAL_S = 0.05
# a sample taken this long before an op still describes it (short ops)
_LOOKBACK_S = 0.1


def probe_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, loop_s: float) -> float:
    return seconds * REFERENCE_LOOP_S / loop_s


class SpeedProbe:
    """Samples `probe_loop` on a timer while the `with` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self.paused = 0.0  # seconds spent inside the probe
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, probe_loop()))
        self.paused += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self, start: float, end: float) -> float:
        """Mean probe loop time over the interval, or the last one before it."""
        window = [dt for t, dt in self.samples if start - _LOOKBACK_S <= t <= end]
        if not window:
            window = [dt for t, dt in self.samples if t <= end][-1:]
        return statistics.mean(window)
