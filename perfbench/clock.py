"""Wall-clock laps scaled to a reference core speed.

The cores of a shared host change speed when neighbours load them: on a
2-vCPU Intel Xeon VM, a fixed forest fit took anywhere from 62 to 132 ms,
and slow stretches lasted most of a minute. Raw wall times of identical runs
then differ by 20-30 %. So every lap is bracketed by a short
probe of fixed work with the same instruction mix as the package's hot paths
(small numpy calls from a Python loop), and the lap's wall time is scaled by
PROBE_REF_S over the mean of the two probes. The result reads as the lap's
wall time on a core running at the reference speed. Probe time is never part
of a lap.
"""

from __future__ import annotations

import time

import numpy as np

#: Duration of one probe on an unloaded core of the reference host
#: (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4): the 5th percentile of 2000
#: probes.
PROBE_REF_S = 0.31e-3


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._columns = rng.uniform(size=(4, 64))
        self._labels = (rng.uniform(size=64) > 0.5).astype(np.int64)
        self._before = self.probe()
        self._start = time.perf_counter()

    def probe(self) -> float:
        """Seconds taken by the fixed probe work."""
        start = time.perf_counter()
        for j in range(40):
            col = self._columns[j % 4]
            order = np.argsort(col, kind="stable")
            np.cumsum(self._labels[order])
            ordered = col[order]
            np.nonzero(ordered[:-1] != ordered[1:])
        return time.perf_counter() - start

    def lap(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) since the previous lap."""
        wall = time.perf_counter() - self._start
        after = self.probe()
        scaled = wall * 2.0 * PROBE_REF_S / (self._before + after)
        self._before = after
        self._start = time.perf_counter()
        return wall, scaled
