"""Processor-speed probe: report times at a fixed reference speed.

The processor this benchmark was tuned on changes speed by a third and more
within a minute, and CPU time moves with wall time, so the drift is in the
processor, not in scheduling.  The probe times a fixed reference kernel,
mixing the Fraction, dict and tuple work the engine does, and scales a
measured time t to  t * REFERENCE_S / (mean kernel time while t was
measured).  On the tuning machine that cut the coefficient of variation of
one g0-wide job from 12.7% to 2.8% over 12 runs, and of one 0.3-second
invariants job from 14-21% to 4-8% over 40 runs.

During the closed loop a SIGALRM handler runs the kernel every INTERVAL_S
seconds; the handler's own time is taken out of every job it interrupts.
Jobs shorter than WINDOW samples use the last WINDOW samples.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# mean kernel time on the machine the bounds were set on (2-vCPU Intel Xeon,
# 2.1 GHz); scaled times are seconds at that speed
REFERENCE_S = 0.00125
INTERVAL_S = 0.02
WINDOW = 10


def reference_kernel():
    """Fixed work: Fraction arithmetic into a dict keyed by tuples."""
    table = {}
    f = Fraction(2, 3)
    for i in range(250):
        key = (i % 7, i % 3, 1)
        c = table.get(key)
        table[key] = f * i if c is None else c + f * Fraction(i, 5)
    return table


def kernel_seconds():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def scale_once(seconds, samples):
    """Scale a time measured between the given kernel samples."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


class SpeedProbe:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the handler, all told
        self.on_sample = None  # called with (start ns, end ns) of each sample

    def _sample(self, *_):
        start = time.perf_counter_ns()
        reference_kernel()
        end = time.perf_counter_ns()
        self.samples.append((end - start) / 1e9)
        self.spent += (end - start) / 1e9
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        for _ in range(WINDOW):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.spent

    def scale(self, mark, seconds):
        """Scale `seconds` measured since `mark`, less the handler's time."""
        first, spent = mark
        last = len(self.samples)
        own = seconds - (self.spent - spent)
        return scale_once(own, self.samples[min(first, last - WINDOW):last])
