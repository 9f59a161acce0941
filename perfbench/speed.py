"""Host-speed normalisation of a worker pass's wall time.

The benchmark host is a VM on a shared machine: co-tenant load slows this
process's CPU by up to about half for seconds to minutes at a time, and the
slowdown shows in CPU time as well as in wall time, so neither is steady
between runs.  ``SpeedSampler`` measures the slowdown as it happens.  Every
PERIOD_S of process CPU time a SIGPROF handler times a fixed pure-Python
calibration loop (the best of REPS tries) and credits the wall time since
the previous sample at the speed it finds:

    norm_wall_s = REF_LOOP_S * sum(interval_wall_s / loop_s)

which is the pass's wall time at the reference speed, the speed at which
the loop takes exactly REF_LOOP_S.  REF_LOOP_S is the loop's time on an idle
2-vCPU Intel Xeon VM with Python 3.11.7, so there ``norm_wall_s`` reads like
the wall time.  A change to the program moves ``norm_wall_s`` as it moves
the wall time; a change of the host's speed between runs does not.  The
calibration itself is left out of the credited intervals; it costs about
0.5% of the pass.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
REPS = 3
REF_LOOP_S = 60e-6

_TABLE = list(range(256))
_MAP = {i: 3 * i for i in range(64)}


def calibration_loop():
    """Fixed interpreter work: list indexing, dict lookups, integer ops."""
    table, mapping, acc = _TABLE, _MAP, 0
    for i in range(600):
        acc = (acc + (table[(7 * i) & 255] ^ mapping[i & 63])) & 0xFFFF
    return acc


def loop_seconds():
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        calibration_loop()
        took = time.perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


class SpeedSampler:
    """Accumulates wall time at the reference speed while it runs."""

    def __init__(self):
        self.credited = 0.0  # sum of interval_wall_s / loop_s
        self.loops = []
        self.last = None

    def _sample(self, signum=None, frame=None):
        now = time.perf_counter()
        loop_s = loop_seconds()
        self.credited += (now - self.last) / loop_s
        self.loops.append(loop_s)
        self.last = time.perf_counter()

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; returns the wall time at the reference speed."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()
        return REF_LOOP_S * self.credited
