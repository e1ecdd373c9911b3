"""Host speed probe: how fast this host runs Python right now.

The benchmark shares two cores of a busy host.  On the 2-core Xeon the
baseline was measured on, each core switches every tenth of a second or
so between a fast and a slow state (a fixed piece of work takes 0.19 or
0.33 ms), and the share of slow time drifts over minutes as other
tenants come and go: the same 8-second simulation took 2.3 to 3.7 s of
CPU within seven minutes.  Raw host times of runs made minutes apart
then differ by more than any change worth catching.

A :class:`SpeedProbe` thread wakes every ``PERIOD_S`` while the work
runs, executes a fixed pure-Python unit and records the unit's own
thread CPU time (so the wait for the interpreter lock is not counted).
The mean unit time over an interval, over ``REFERENCE_UNIT_S``, is the
host's slowdown during that interval; the benchmark divides the host
times it measured in the interval by it, and so reports them at the
reference speed.  Over five ``dense-500`` runs during such a drift, the
spread (interquartile range over median) of ``cpu_s`` fell from 0.33
raw to 0.13, most of what is left being how much work each seed gives.

Run as a script, it prints the unit's time on this host:

    python3 perfbench/probe.py
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional

#: Seconds between two probe units; each unit takes about 0.25 ms, so
#: the probe costs the measured work about 2.5 % of one core.
PERIOD_S = 0.01

#: Mean thread CPU seconds of one :func:`unit` on the reference machine
#: (2-core Xeon, Python 3.11).  A constant: every reported host time is
#: scaled to this speed, so it must never change between commits.
REFERENCE_UNIT_S = 2.5e-4


def unit() -> float:
    """A fixed piece of interpreter work: attribute and dict access,
    float arithmetic and calls, as in the simulator's event handlers."""
    table: dict = {}
    acc = 0.0
    for i in range(840):
        key = i & 63
        table[key] = table.get(key, 0.0) + (i * 0.5) % 7.0
        acc += abs(table[key] - acc * 0.001)
    return acc


class SpeedProbe:
    """A daemon thread sampling :func:`unit` every ``PERIOD_S``.

    ``mark()`` returns a position in the sample list; ``slowdown(a, b)``
    is the mean unit time of the samples between two marks over
    ``REFERENCE_UNIT_S``.  ``cpu_s()`` is the probe thread's own CPU
    time, which the benchmark subtracts from the CPU time it measures.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self._cpu_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._loop, name="speed-probe",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            t0 = time.thread_time()
            unit()
            t1 = time.thread_time()
            self.samples.append(t1 - t0)
            self._cpu_s = t1

    def mark(self) -> int:
        return len(self.samples)

    def cpu_s(self) -> float:
        return self._cpu_s

    def slowdown(self, start: int, end: Optional[int] = None) -> float:
        """Mean unit time between two marks over the reference; with
        no sample in between (an interval shorter than ``PERIOD_S``),
        one unit is timed here and now."""
        window = self.samples[start:end]
        if not window:
            t0 = time.thread_time()
            unit()
            window = [time.thread_time() - t0]
        return statistics.fmean(window) / REFERENCE_UNIT_S


if __name__ == "__main__":
    times = []
    for _ in range(2000):
        t0 = time.thread_time()
        unit()
        times.append(time.thread_time() - t0)
    print(f"unit: min {min(times) * 1e3:.4f} ms, "
          f"median {statistics.median(times) * 1e3:.4f} ms, "
          f"mean {statistics.fmean(times) * 1e3:.4f} ms")
