"""Host-speed calibration for the gated timings.

The benchmark runs on a shared host.  Two kinds of noise there make raw
wall times of the same code spread far past any bound a regression gate
could use: other processes take turns on the cores (time slicing), and
the cores themselves run slower for minutes at a time (up to 2x).
:class:`HostClock` removes both:

- it times CPU, not wall: :meth:`HostClock.now` is a *work clock*, the
  process's CPU time minus the time spent in chunks, so time slicing does
  not show and no timed interval contains calibration work;
- a *chunk* is a fixed piece of pure-Python work (:func:`_chunk_work`),
  timed by its thread's CPU clock; while a pass runs the clock times one
  every ``TIMER_INTERVAL_S`` of wall time (a ``SIGALRM`` handler, which
  Python runs in the main thread between byte-codes) or wherever a
  workload calls :meth:`HostClock.tick`;
- :meth:`HostClock.norm` turns a work-clock interval into *reference
  seconds*: it cuts the interval at the chunks taken inside it, and scales
  each piece by ``REF_CHUNK_S`` over the mean of the middle half of the
  ``MIN_SAMPLES`` chunk times nearest to that piece.  Single chunks scatter
  by +-30% at this host's millisecond scale; the middle half drops the
  outliers and still follows the drift.

A program that does more work reads slower in reference seconds; a host
that runs everything slower for a while does not.  With no chunks taken
(the traced run) :meth:`norm` returns the raw CPU time.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from statistics import fmean
from typing import List

# about the chunk's CPU time on the reference machine; it fixes the scale
# of a reference second
REF_CHUNK_S = 0.0025
TIMER_INTERVAL_S = 0.05
MIN_SAMPLES = 20


def _chunk_work() -> int:
    """Three kinds of interpreter work, because the host's slow periods slow
    them by different factors and the workloads mix them: a tight integer
    loop, a dict scattered over a 1M key space (cache misses), and short
    strings grouped into lists (allocation)."""
    s = 0
    for i in range(10_000):
        s += i * i % 7
    scattered: dict = {}
    for i in range(3_000):
        k = (i * 2654435761) & 0xFFFFF
        scattered[k] = scattered.get(k, 0) + i
    groups: dict = {}
    for word in [str(i) * 3 for i in range(1_500)]:
        groups.setdefault(word[:3], []).append(word)
    return s + len(scattered) + len(groups)


class HostClock:
    def __init__(self) -> None:
        self.active = False
        self.stolen = 0.0
        self.times: List[float] = []  # work-clock instant of each chunk
        self.chunks: List[float] = []  # each chunk's duration
        self._timer = False
        self._busy = False

    def now(self) -> float:
        """Seconds on the work clock: the process's CPU time minus the
        chunks' CPU time."""
        return time.process_time() - self.stolen

    def tick(self) -> None:
        """Time one chunk, if sampling is on."""
        if not self.active or self._busy:
            return
        self._busy = True
        # a collection of the workload's heap must not land in a chunk
        collecting = gc.isenabled()
        gc.disable()
        stamp = self.now()
        start = time.thread_time()
        _chunk_work()
        took = time.thread_time() - start
        if collecting:
            gc.enable()
        self.times.append(stamp)
        self.chunks.append(took)
        self.stolen += took
        self._busy = False

    def start(self, timer: bool) -> None:
        """Sample from now on: on a timer, or only at explicit ticks."""
        self.active = True
        if timer:
            # a wall-clock timer: a CPU-time one (ITIMER_PROF) arms the
            # kernel's process CPU timer, and while it is armed the process
            # CPU clock advances in scheduler ticks (4 ms) only
            signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
            signal.setitimer(signal.ITIMER_REAL, TIMER_INTERVAL_S, TIMER_INTERVAL_S)
            self._timer = True

    def stop(self) -> None:
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timer = False
        self.active = False

    def local_chunk(self, t0: float, t1: float) -> float:
        """Mean of the middle half of the chunk times taken in ``[t0, t1]``,
        widened to the ``MIN_SAMPLES`` nearest when it holds fewer."""
        ts = self.times
        lo, hi = bisect_left(ts, t0), bisect_right(ts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(ts)):
            if hi == len(ts) or (lo > 0 and t0 - ts[lo - 1] <= ts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        window = sorted(self.chunks[lo:hi])
        cut = len(window) // 4
        return fmean(window[cut:len(window) - cut])

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of CPU spent over the work-clock interval ``[t0, t1]``,
        in reference seconds."""
        if not self.chunks:
            return seconds
        return seconds * REF_CHUNK_S / self.local_chunk(t0, t1)

    def norm(self, t0: float, t1: float) -> float:
        """The work-clock interval ``[t0, t1]`` in reference seconds, scaled
        piece by piece between the chunks taken inside it: a single speed
        for a long interval that spans a change of host speed would pick
        whichever speed held longer."""
        if not self.chunks:
            return t1 - t0
        cuts = [t0, *self.times[bisect_right(self.times, t0):bisect_left(self.times, t1)], t1]
        return sum(self.scale(b - a, a, b) for a, b in zip(cuts, cuts[1:]))


CLOCK = HostClock()
