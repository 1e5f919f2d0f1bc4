"""Machine-speed gauge: a fixed kernel timed during and between operations.

The benchmark runs on virtual CPUs of a shared host.  A vCPU's speed swings
by up to 2x within seconds, with the load on the host thread it shares a core
with; CPU time inflates with wall time, so it cannot correct for that.  A
small fixed kernel that does not touch ``repro`` is timed while the operations
run, and an operation's time is scaled by how slow the kernel ran meanwhile:

    normalised = (wall - kernel time inside the operation)
                 * REFERENCE_KERNEL_S / mean kernel time during the operation

which is the operation's time at the reference speed.  No change to the
program can speed the kernel up or slow it down, so a real change still shows
in full.

``corpus_search`` and every set-up sample with :class:`SignalSampler`: a
``SIGALRM`` handler times the kernel every ``interval_s`` in the thread that
is doing the work, so every operation longer than the interval carries its
own samples.  ``evolve_store`` samples between steps, because a step's store
writer thread would hold up a kernel timed inside it, and ``serve_warm``
matches in a server process and samples there, between operations.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import Callable, List

#: Median :func:`kernel` time on the two-core x86-64 container the benchmark
#: was defined on, run alone; normalised times are wall times at this speed.
REFERENCE_KERNEL_S = 0.0008
#: :class:`SignalSampler`'s period.
SAMPLE_INTERVAL_S = 0.05
#: Kernel runs of a sample taken between operations (their median).
BETWEEN_RUNS = 9

_WORDS = [f"{stem}{suffix}{index % 7}"
          for index, (stem, suffix) in enumerate(
              (stem, suffix)
              for stem in ("order", "item", "party", "ship", "bill", "price", "line", "tax",
                           "buyer", "seller", "contact", "delivery")
              for suffix in ("Number", "Date", "Code", "Name", "Address", "Total", "Qty", "Unit",
                             "Street", "City"))]
_GRAMS = {word: {word[i:i + 3] for i in range(len(word) - 2)} for word in _WORDS}


def kernel() -> int:
    """Interpreter work shaped like name matching: n-gram set overlaps, a dict."""
    best = {}
    for left in _WORDS[:12]:
        grams = _GRAMS[left]
        for right in _WORDS:
            shared = len(grams & _GRAMS[right])
            if shared > best.get(left, (0, ""))[0]:
                best[left] = (shared, right)
    return len(best)


def time_kernel(runs: int = 1) -> float:
    """Median seconds of ``runs`` :func:`kernel` calls, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(runs):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Kernel timings along a run, to scale each operation to the reference speed.

    A sample is the kernel's start time and duration.  ``probe`` takes one
    between operations (:meth:`tick`, :meth:`sample`); a
    :class:`SignalSampler` adds samples taken inside operations.
    """

    def __init__(self, probe: Callable[[], float] = time_kernel, interval_s: float = 0.0):
        self.probe = probe
        self.interval_s = interval_s
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def record(self, started: float, seconds: float) -> None:
        self.starts.append(started)
        self.seconds.append(seconds)

    def sample(self) -> None:
        started = time.perf_counter()
        seconds = self.probe()
        self.record(started, seconds)

    def tick(self) -> None:
        """Take a sample when the last one is older than ``interval_s``."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.interval_s:
            self.sample()

    def _inside(self, start: float, end: float) -> List[float]:
        return self.seconds[bisect.bisect_left(self.starts, start):
                            bisect.bisect_right(self.starts, end)]

    def slowness(self, start: float, end: float) -> float:
        """Mean kernel time during ``[start, end]`` over the reference kernel time.

        Without a sample inside, the last sample before and the first after
        stand in; 1.0 when the gauge has no sample at all.
        """
        around = self._inside(start, end)
        if not around:
            before = bisect.bisect_left(self.starts, start) - 1
            after = bisect.bisect_right(self.starts, end)
            around = [self.seconds[index] for index in (before, after)
                      if 0 <= index < len(self.seconds)]
        if not around:
            return 1.0
        return statistics.fmean(around) / REFERENCE_KERNEL_S

    def normalised(self, seconds: float, start: float) -> float:
        """``seconds`` of wall time from ``start``, less the kernel's share, at the reference speed."""
        end = start + seconds
        return (seconds - sum(self._inside(start, end))) / self.slowness(start, end)

    def summary(self) -> dict:
        if not self.seconds:
            return {"samples": 0}
        return {"samples": len(self.seconds),
                "median_ms": statistics.median(self.seconds) * 1e3,
                "min_ms": min(self.seconds) * 1e3, "max_ms": max(self.seconds) * 1e3}


class SignalSampler:
    """Times :func:`kernel` into ``gauge`` every ``interval_s`` of wall time.

    The ``SIGALRM`` handler runs in the main thread between bytecodes, on the
    vCPU that is running the operation.  Interrupted system calls restart.
    """

    def __init__(self, gauge: SpeedGauge, interval_s: float = SAMPLE_INTERVAL_S):
        self.gauge = gauge
        self.interval_s = interval_s
        self._previous = None

    def _handle(self, signum, frame) -> None:
        started = time.perf_counter()
        self.gauge.record(started, time_kernel())

    def __enter__(self) -> "SignalSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
