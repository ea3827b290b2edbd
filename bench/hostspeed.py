"""Host-speed calibration for the benchmark's end-to-end times.

A shared host's speed drifts by 10-25 % over seconds, which would swamp any
regression bound.  While a HostSpeed is active, a SIGALRM interval timer
interrupts the process every CAL_EVERY_S and times a fixed pure-Python
integer loop.  A measured time is scaled by CAL_REF_S over the mean loop
time sampled in the same process during it, and the timer's own time is
subtracted from it.  Samples must come from the process doing the work:
taken in another process, even on another CPU, they did not follow a child
process's speed.  Times then read as seconds on a host where the loop takes
CAL_REF_S: a 2-vCPU 2.1 GHz Xeon VM with Python 3.11 when unloaded.
"""

import signal
import time

CAL_ITERATIONS = 20_000
CAL_REF_S = 0.0018
CAL_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds the host currently needs for a fixed integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Reference-host factor for a stretch sampled by `samples`."""
    return CAL_REF_S * len(samples) / sum(samples)


class HostSpeed:
    """Calibration samples from a SIGALRM interval timer while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time the timer took from the running code

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
