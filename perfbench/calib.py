"""Host-speed calibration and the small statistics the benchmark reports.

The host this benchmark runs on changes speed within a second: the raw
time of one paper-sweep pass varied by 8-20% from pass to pass in one
process.  So every timed stretch of work is bracketed by a short
calibration made only of standard-library code (no ``repro`` import), and
its wall time is rescaled to the reference calibration below::

    reference seconds = raw seconds * REFERENCE_CALIBRATION_S / calibration

where ``calibration`` is the mean of the runs just before and just after
the stretch.  A slower host makes both slower, so the ratio cancels most
of the drift -- if the stretch is short and the calibration slows down
the way the program does.  Measured on sweep passes (raw spread 13%):

* a 0.1 s integer-loop-plus-``zlib`` calibration around each 1 s pass: 13%;
* a 7 ms integer loop with list and dict reads at each of a pass's 46
  pauses (:class:`SegmentedTimer`): 4%;
* the same pauses with the calibration below, ten JSON round trips of a
  report-shaped document (~3 ms): 2.5%, and no trend left between slow
  and fast passes.  Like the program it allocates and frees many small
  objects.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Sequence, Tuple

#: The calibration's wall time on the reference host (2-core x86-64 VM,
#: CPython 3.11).  Reported times are in seconds *of that host*.
REFERENCE_CALIBRATION_S = 0.0032

_ENGINES = ("LJH", "STEP-MG", "STEP-QD", "STEP-QB", "STEP-QDB")
_DOCUMENT = {
    "outputs": [
        {
            "name": f"y{index}",
            "results": {
                engine: {
                    "decomposed": True,
                    "partition": [
                        [f"x{j}" for j in range(5)],
                        [f"x{j}" for j in range(5, 9)],
                        ["x9"],
                    ],
                    "stats": {"conflicts": index * 7, "decisions": index * 13},
                }
                for engine in _ENGINES
            },
        }
        for index in range(12)
    ]
}


def calibrate() -> float:
    """One calibration run (~3 ms); returns its wall time in seconds."""
    started = time.perf_counter()
    for _ in range(10):
        json.loads(json.dumps(_DOCUMENT))
    return time.perf_counter() - started


def calibrate_each_cpu() -> float:
    """Mean calibration over every CPU this process may run on.

    For work spread over several processes: each CPU of the host can drift
    on its own, so a calibration pinned to one of them is not enough.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return calibrate()
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            # The first run after a move starts from cold caches.
            times.append(min(calibrate(), calibrate()))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Bracket:
    """Calibrate on every CPU before and after a timed region of work that
    runs in several processes, and rescale its times.

    Usage::

        bracket = Bracket()          # calibrates "before"
        ... timed work ...
        bracket.close()              # calibrates "after"
        seconds = bracket.scale(raw_seconds)
    """

    def __init__(self) -> None:
        self.before = calibrate_each_cpu()
        self.after = None

    def close(self) -> "Bracket":
        self.after = calibrate_each_cpu()
        return self

    @property
    def factor(self) -> float:
        if self.after is None:
            raise ValueError("bracket not closed")
        return REFERENCE_CALIBRATION_S / ((self.before + self.after) / 2.0)

    def scale(self, raw_seconds: float) -> float:
        return raw_seconds * self.factor


class SegmentedTimer:
    """Times work that pauses at known points, calibrating at every pause.

    Each segment between two pauses is rescaled by the calibrations at its
    two ends; calibration time itself is not counted.
    """

    def __init__(self, calibration=calibrate) -> None:
        self._calibrate = calibration
        self._last = calibration()
        self.raw = self.scaled = self.calibration_s = 0.0
        self._started = time.perf_counter()

    def pause(self) -> float:
        """Close the running segment; returns the reference seconds so far."""
        segment = time.perf_counter() - self._started
        began = time.perf_counter()
        current = self._calibrate()
        self.calibration_s += time.perf_counter() - began
        self.raw += segment
        self.scaled += segment * REFERENCE_CALIBRATION_S / ((self._last + current) / 2.0)
        self._last = current
        self._started = time.perf_counter()
        return self.scaled


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank
