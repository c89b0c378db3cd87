"""Speed calibration sampled while the commands run.

On a shared virtual machine the CPU's speed can swing by up to 1.8x within
seconds as other tenants' load comes and goes, so raw times of identical
work spread by more than any useful regression bound.  While the commands run, a wall-clock timer
interrupts them every ``INTERVAL_S`` and runs a fixed calibration task in
the signal handler, between two bytecodes of the program.  The handler's
time is subtracted from the commands' time, and the commands' time over
the mean time of one calibration task is a ratio in which the machine's
speed cancels: both sides run on the same CPU within milliseconds of each
other.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
MIN_SAMPLES = 20


def calibration_task() -> None:
    """Fixed pure-Python work in the mix the verifier runs: tuple-keyed dict
    updates, integer bit operations, string formatting and small-fraction
    arithmetic.  It uses nothing of ``ainfsign``, so a change to the
    program cannot change it.  About 2 ms on a 2.1 GHz Xeon."""
    table = {}
    total = Fraction(0)
    for i in range(400):
        key = (i % 17, i % 5, "e%d" % (i % 11))
        table[key] = table.get(key, 0) + ((i * 2654435761) >> 7 & 255)
        if i % 4 == 0:
            total = Fraction(i % 13, 7) * Fraction(3, i % 9 + 1) + total / 2
            total = Fraction(total.numerator % 1000003, total.denominator % 997 + 1)


class Calibrator:
    """Context manager: samples the calibration task on a timer while the
    block runs.  ``samples`` holds [wall, cpu] seconds of each task run."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.sampling = False

    def sample(self, *_) -> None:
        if self.sampling:  # a tick that lands inside a sample would nest in it
            return
        self.sampling = True
        began, began_cpu = time.perf_counter(), time.process_time()
        calibration_task()
        self.samples.append([time.perf_counter() - began, time.process_time() - began_cpu])
        self.sampling = False

    def __enter__(self) -> Calibrator:
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def spent(self) -> tuple[float, float]:
        """Wall and CPU seconds the samples took."""
        return sum(w for w, _ in self.samples), sum(c for _, c in self.samples)

    def top_up(self) -> None:
        """Sample directly until there are MIN_SAMPLES: short commands end
        before the timer has fired often enough for a steady mean."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
