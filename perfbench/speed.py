"""Host speed, sampled while the benchmark measures.

The CPU speed of a shared machine drifts.  On the shared 2-CPU Xeon virtual
machine where this benchmark was defined, a fixed Python loop ran up to 1.5 times slower for
stretches of seconds to minutes, so raw times of the same run spread by a
quarter or more.  A ``Sampler`` times a fixed probe computation: every
``INTERVAL_S`` from a SIGALRM handler when it measures its own process, or
only when asked when it measures child processes, which its probes must
not compete with.  ``Sampler.scaled`` turns a measured interval into
seconds at the reference speed: the interval, less the probes run inside
it, times ``PROBE_REF_S`` over the mean duration of the probes during it,
or next to it.  A change to dtregge does not touch the probe, so it moves
the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.1
#: The probe duration that defines the reference speed.  It is near the
#: probe's median on the machine above, whose samples ran from 0.8 to 1.5 ms.
PROBE_REF_S = 0.001


def probe_work() -> Fraction:
    """Dict, tuple and Fraction work, the mix of dtregge's inner loops."""
    total = Fraction(0)
    for rep in range(3):
        parent = {(f, c): (f, c) for f in range(12) for c in range(3)}
        for f in range(12):
            for c in range(3):
                a, b = (f, c), ((f * 5 + rep) % 12, (c + 1) % 3)
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    parent[a] = b
        for i in range(1, 40):
            total += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    return total


class Sampler:
    """Context manager that samples the probe while it is open: on a timer
    with ``timer``, else at the start, at the end and at each ``sample()``."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def merge(self, samples) -> None:
        """Add (start, duration) samples taken by a child process; on Linux
        ``perf_counter`` is CLOCK_MONOTONIC, the same in every process."""
        pairs = sorted(list(zip(self.starts, self.durations)) + [tuple(x) for x in samples])
        self.starts = [start for start, _ in pairs]
        self.durations = [duration for _, duration in pairs]

    def net(self, start: float, end: float) -> float:
        """The interval less the probes that ran inside it."""
        i, j = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return end - start - sum(self.durations[i:j])

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would take at the reference speed.  An
        interval that holds no probe uses the two on either side."""
        i, j = bisect_left(self.starts, start), bisect_left(self.starts, end)
        around = self.durations[i:j] or self.durations[max(i - 2, 0):i + 2]
        return self.net(start, end) * PROBE_REF_S / statistics.fmean(around)


def timings(sampler: Sampler | None, intervals) -> dict:
    """Times of named (name, start, end) intervals and their sum: scaled
    when ``sampler`` ran over them, raw otherwise.  Traced rounds are not
    sampled, since the probes would count as time of the traced layers."""
    if sampler is None:
        ops = [[name, end - start] for name, start, end in intervals]
        return {"ops": ops, "wall_s": sum(t for _, t in ops)}
    ops = [[name, sampler.scaled(start, end)] for name, start, end in intervals]
    raw = [[name, sampler.net(start, end)] for name, start, end in intervals]
    return {
        "ops": ops,
        "wall_s": sum(t for _, t in ops),
        "ops_raw": raw,
        "wall_raw_s": sum(t for _, t in raw),
        "probe_median_s": statistics.median(sampler.durations),
    }
