"""A fixed yardstick for the speed of the machine while a run is made.

The shared machines this benchmark was built on switch between speed
regimes that last tens of seconds.  Back-to-back ``catalog`` runs of the same
code measured 460 and 650 ops/s, and one run changed regime half-way.  A run
of 15 s cannot average that out.  So a run times this fixed slice of
plain-Python polynomial arithmetic, the same kind of work mfkit does, every
quarter second between ops.  Each op time is then scaled by
``REFERENCE_S / (median of the nearby slice times)``.  That gives the time
the op would take on a machine where one slice takes ``REFERENCE_S``.  On
eight back-to-back ``catalog`` runs this cut the spread of ``ops_per_s`` from
22 % to 2 % of the median.

The slice must never change: every recorded figure is in its units.  It
shares no code with mfkit or with the checker, so no change to either can
move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010  # seconds one slice is taken to last
EVERY_S = 0.25  # a slice is timed before the first op that starts this long after the last slice
WINDOW = 5  # slices whose median sets the speed around an op

_P = 2**31 - 1


def _monomials(d: int):
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]


_A = {e: Fraction(i + 1, 3) for i, e in enumerate(_monomials(4))}
_B = {e: 7 * i + 1 for i, e in enumerate(_monomials(5))}


def _mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = (out.get(e, 0) + c1 * c2) % p if p else out.get(e, 0) + c1 * c2
    return out


def reference_slice() -> None:
    """The fixed work: products of dense trivariate polynomials over QQ and GF(p)."""
    for _ in range(5):
        _mul(_A, _B, 0)
        _mul(_B, _B, _P)


class Yardstick:
    """Slice timings taken through a run, and the speed factor at any moment."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def measure(self) -> float:
        # the slice makes no cycles; with the collector paused it does not pay
        # for collecting the garbage of the op before it
        gc.disable()
        t0 = perf_counter()
        reference_slice()
        dur = perf_counter() - t0
        gc.enable()
        self.starts.append(t0)
        self.durations.append(dur)
        return dur

    def tick(self) -> None:
        """Time a slice if none was timed in the last EVERY_S seconds."""
        if not self.starts or perf_counter() - self.starts[-1] >= EVERY_S:
            self.measure()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the median of the WINDOW slices nearest to time t."""
        j = bisect.bisect_left(self.starts, t)
        lo = max(0, min(j - WINDOW // 2 - 1, len(self.starts) - WINDOW))
        return REFERENCE_S / statistics.median(self.durations[lo:lo + WINDOW])
