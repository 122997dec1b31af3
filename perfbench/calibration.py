"""Machine-speed calibration for the timed runs.

The benchmark's host is shared, and its speed drifts by up to a factor of two
in phases of one to ten seconds: a fixed piece of pure-Python work takes 2.8
ms in one phase and 5.4 ms in the next, and the program's operations slow
down with it.  While a timed run's operations execute, a timer signal
therefore interrupts them every ``SAMPLE_EVERY_S`` seconds to time a fixed
calibration kernel; the timer is paused between operations, so the samples
fall evenly over operation time.  The time spent in the kernel is taken out
of the operation it interrupted.

The work an operation does is its time multiplied by the machine's speed
averaged over that time, and the samples estimate that average: the speed
while a sample ran is ``REFERENCE_S`` divided by its duration, in units of
the reference speed, at which the kernel takes ``REFERENCE_S``.  A stretch
of operation time is therefore converted to reference seconds by the mean
of that ratio over the stretch's samples.  (The median sample tracks the
host's two-speed phases poorly: against it, a long operation's time moved by
only about half as much as the kernel's.)

The kernel never calls the program, so a change to the program cannot move
it.  It does the kind of work the program does (dicts keyed by tuples,
``Fraction`` arithmetic) and builds no reference cycles, so it leaves no
garbage for the collector to charge to a later operation.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# a kernel sample's duration at the reference speed
REFERENCE_S = 0.003
# the timer signal samples the kernel this often, in seconds of operation time
SAMPLE_EVERY_S = 0.1
# operation time is scaled in stretches of at least this many seconds, each
# by the kernel samples taken during it
SEGMENT_S = 1.0
# and of at least this many samples
SEGMENT_SAMPLES = 5

_LEFT = tuple((f"a{i}",) for i in range(4))
_RIGHT = tuple((f"b{i}",) for i in range(4))
_ONE = Fraction(1)
_WEIGHT = Fraction(1, 2)


def kernel() -> dict:
    """The mixable shuffle of two four-letter words at weight 1/2, bottom-up."""
    m, n = len(_LEFT), len(_RIGHT)
    table: dict = {}
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if i == m:
                out = {_RIGHT[j:]: _ONE}
            elif j == n:
                out = {_LEFT[i:]: _ONE}
            else:
                out = {}
                for letter, sub, w in (((_LEFT[i],), table[i + 1, j], _ONE),
                                       ((_RIGHT[j],), table[i, j + 1], _ONE),
                                       ((_LEFT[i] + _RIGHT[j],), table[i + 1, j + 1], _WEIGHT)):
                    for word, c in sub.items():
                        key = letter + word
                        out[key] = out.get(key, 0) + w * c
            table[i, j] = out
    return table[0, 0]


def sample() -> float:
    """Seconds one kernel run takes now, with the collector paused."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the kernel took ``samples``, at reference speed."""
    return seconds * statistics.fmean(REFERENCE_S / s for s in samples)


class Meter:
    """Kernel samples from a timer signal, and operation time scaled stretch
    by stretch to the reference speed.

    Inside the ``with`` block, time each operation inside ``running()``, and
    pass ``add`` its duration less ``paused(t0, t1)``, the
    time the kernel took inside it.  On leaving, the last stretch is topped
    up to ``SEGMENT_SAMPLES`` samples.
    """

    def __init__(self, every: float = SAMPLE_EVERY_S) -> None:
        # seconds of operation time between samples
        self.every = every
        # [operation seconds, kernel samples] per stretch
        self.segments: list[list] = [[0.0, []]]
        # (start, seconds) of every kernel run from the timer signal
        self.pauses: list[tuple[float, float]] = []
        # seconds of operation time left until the next sample
        self._due = every
        self._previous = None

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    @contextlib.contextmanager
    def running(self):
        """Run the timer for the duration of the block."""
        signal.setitimer(signal.ITIMER_REAL, self._due, self.every)
        try:
            yield
        finally:
            self._due = signal.setitimer(signal.ITIMER_REAL, 0)[0] or self.every

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        last = self.segments[-1][1]
        while len(last) < SEGMENT_SAMPLES:
            last.append(sample())

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.segments[-1][1].append(sample())
        self.pauses.append((t0, time.perf_counter() - t0))

    def paused(self, t0: float, t1: float) -> float:
        """Seconds the kernel took in runs that started between t0 and t1.
        A signal handler runs to its end before the code it interrupted
        goes on, so each such run lies wholly inside that interval."""
        total = 0.0
        for start, seconds in reversed(self.pauses):
            if start < t0:
                break
            if start < t1:
                total += seconds
        return total

    def add(self, seconds: float) -> None:
        """Count one operation's time in the current stretch, and start a new
        stretch once this one is long enough and has enough samples."""
        seg = self.segments[-1]
        seg[0] += seconds
        if seg[0] >= SEGMENT_S and len(seg[1]) >= SEGMENT_SAMPLES:
            self.segments.append([0.0, []])

    @property
    def samples(self) -> list[float]:
        return [s for _, samples in self.segments for s in samples]

    @property
    def reference_s(self) -> float:
        """The operation time at reference speed."""
        return sum(scale(seconds, samples) for seconds, samples in self.segments if seconds)
