"""Host-speed reference: a fixed pure-Python kernel timed during a batch.

The benchmark runs on shared hosts whose speed moves by tens of percent
over seconds to minutes, while the process itself is never descheduled
(CPU time tracks wall time).  A fixed kernel that does the same kind of
work as the library (small frozensets of monomial tuples, bit-packed F2
elimination on ints) and runs interleaved with the queries slows down with
the host in step with them.  Dividing a batch's time by the kernel's
slowdown gives the batch time at the reference speed, which no change to
the library can move (the kernel imports nothing from it).

    with Meter() as meter:     # one kernel unit every EVERY_S of wall time
        t = meter.clock()      # time.perf_counter() minus the kernel's time
        ...
    meter.factor()             # kernel time / reference time; > 1: slower

The units run from a SIGALRM handler, so they fall inside long queries as
well as between short ones, and every stretch of the batch is sampled
alike; ``clock`` leaves their time out of everything it measures.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# Reference time of one kernel unit: about its median on the host where
# the baseline in README.md was taken (2-vCPU Intel Xeon VM, Python 3.11.7,
# PYTHONHASHSEED=0).
UNIT_S = 0.0075
EVERY_S = 0.1  # wall time per kernel unit (~7 % overhead)

_rng = random.Random(20231208)
_POLYS = [(frozenset((a % 7 + k, k) for k in range(12)),
           frozenset((k, a % 5 + k) for k in range(12))) for a in range(90)]
_N = 96  # rows and columns of the F2 elimination
_ROWS = [_rng.getrandbits(_N) for _ in range(_N)]


def unit() -> float:
    """Run the kernel once; return its time in seconds.  The collector is
    off, so the time does not depend on the size of the library's heap."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    table = {}
    for n, (p, q) in enumerate(_POLYS):
        out = set()
        for m1 in p:
            for m2 in q:
                out ^= {(m1[0] + m2[0], m1[1] + m2[1])}
        table[n] = frozenset(out)
    rows = list(_ROWS)
    for col in range(_N):
        bit = 1 << col
        piv = next((i for i in range(col, _N) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(_N):
            if i != col and rows[i] & bit:
                rows[i] ^= rows[col]
    elapsed = time.perf_counter() - t
    if enabled:
        gc.enable()
    return elapsed


class Meter:
    """Samples the kernel every ``EVERY_S`` of wall time while entered."""

    def __init__(self):
        self.units = 0
        self.kernel_s = 0.0
        self._busy = False
        self._old = None

    def clock(self) -> float:
        """``time.perf_counter()`` minus the kernel time so far."""
        while True:
            k = self.kernel_s
            t = time.perf_counter()
            if k == self.kernel_s:  # no unit ran in between
                return t - k

    def sample(self, *_) -> None:
        if self._busy:  # a tick that arrives during a unit is dropped
            return
        self._busy = True
        try:
            self.kernel_s += unit()
            self.units += 1
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self) -> float:
        """How much slower than the reference the host ran (> 1: slower)."""
        if not self.units:
            self.sample()
        return self.kernel_s / (self.units * UNIT_S)
