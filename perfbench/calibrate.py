"""Machine-speed calibration interleaved with a workload.

The 2-vCPU virtual machine this benchmark was built on shares its CPUs
with other tenants, and its speed switches between modes about 1.5x apart
every few seconds: the same 1000 queries in one process took 0.40 ms at
the median in one second and 0.77 ms in the next.  A median over a run
cannot hide that.

So the benchmark runs a fixed unit of reference work between operations,
about every 0.1 s.  The unit does the kind of work the program does —
unpack fixed-width records, aggregate into a dict, sort, build tuples —
but calls no program code, and runs with the garbage collector off so the
program's heap cannot slow it.  A wall time measured at moment ``t`` is
reported at reference speed::

    reported = measured * REFERENCE_UNIT_S / median(unit times near t)

In that machine's faster mode the unit takes about ``REFERENCE_UNIT_S``, so
reported figures read close to raw milliseconds there.  A change to the
program moves the measured time but not the unit's, so it still shows in
full.  Raw figures are kept in the result file.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import struct
import time
from typing import Callable, List

#: Duration of one reference unit on the reference machine (seconds).
REFERENCE_UNIT_S = 0.0015
#: Seconds of workload between two reference units.
INTERVAL_S = 0.1
#: Units within this many seconds of a sample set its speed: wide enough
#: that one unit's own jitter barely moves a tail sample, narrow enough to
#: follow the speed modes.
WINDOW_S = 1.0

_RECORD = struct.Struct("<3qd")
_RECORDS = b"".join(
    _RECORD.pack(i, i * 3, i * 7, float(i)) for i in range(2000)
)


def reference_unit() -> None:
    """A fixed piece of interpreter work resembling the program's."""
    sums: dict = {}
    for a, b, _c, value in _RECORD.iter_unpack(_RECORDS):
        key = (a % 97, b % 13)
        sums[key] = sums.get(key, 0.0) + value
    rows = [key + (total,) for key, total in sorted(sums.items())]
    if len(rows) != 97 * 13:
        raise RuntimeError("reference unit miscomputed")


class Calibrator:
    """Reference-unit timings over a run, and the speed factor they imply."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.times: List[float] = []
        self.units: List[float] = []
        self._due = 0.0

    def unit(self) -> None:
        """Time one reference unit now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            reference_unit()
            elapsed = self.clock() - start
        finally:
            if enabled:
                gc.enable()
        self.times.append(start)
        self.units.append(elapsed)

    def tick(self) -> None:
        """Time a unit if ``INTERVAL_S`` has passed since the last one."""
        now = self.clock()
        if now >= self._due:
            self.unit()
            self._due = self.clock() + INTERVAL_S

    def burst(self, count: int = 5) -> None:
        """Time several units back to back (around a set-up, say)."""
        for _ in range(count):
            self.unit()

    def factor(self, start: float, end: float = -1.0) -> float:
        """REFERENCE_UNIT_S over the median unit time near [start, end]."""
        if not self.units:
            raise RuntimeError("no reference unit was timed")
        if end < start:
            end = start
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.units[lo:hi]
        if not near:
            index = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = self.units[max(0, index - 1) : index + 1]
        return REFERENCE_UNIT_S / statistics.median(near)

    def scale(self, start: float, seconds: float) -> float:
        """A wall time that began at ``start``, at reference speed."""
        return seconds * self.factor(start, start + seconds)

    def overall(self) -> float:
        """The run's median speed factor."""
        return REFERENCE_UNIT_S / statistics.median(self.units)
