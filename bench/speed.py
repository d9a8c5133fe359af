"""The machine's speed over a run, read from a fixed reference kernel.

On a shared machine the speed a process gets drifts by a third or more
over tens of seconds, on every core at once, as other tenants come and
go; no statistic taken inside one run removes a slowdown that lasts the
whole run. So the benchmark runs a short reference kernel between
operations, all through the timed phase, and scales every time it
reports by

    PROBE_REF_S / (mean time of the run's probes),

which gives the time in seconds of a machine on which the kernel takes
PROBE_REF_S. The kernel is the benchmark's own code, never wqokit's, so
no change to wqokit moves it. It filters a fixed list of vectors down to
its minimal elements in pure Python: tuples, generators, calls and
comparisons, the same mix of interpreter work as wqokit's, so over a run
it slows down with the machine in about the same proportion. Over a
fraction of a second it does not: one scale per run, not per operation.
The speed often flips between two levels many times a second, so the
probe times have two modes; their mean, unlike their median, moves in
proportion to the share of time spent in each.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

PROBE_REF_S = 0.004  # the kernel's time on the reference machine

_rng = random.Random(6)
VECTORS = tuple(tuple(_rng.randrange(8) for _ in range(5)) for _ in range(260))


def _le(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def kernel() -> list:
    """The minimal elements of VECTORS under the product order."""
    out: list = []
    for v in VECTORS:
        if any(_le(g, v) for g in out):
            continue
        out = [g for g in out if not _le(v, g)]
        out.append(v)
    return out


class Speed:
    """Probe times over a run; scale() converts its wall time."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        """Run the kernel once; return the wall time it took."""
        gc.disable()  # a collection of the caller's garbage is no part of a probe
        try:
            t0 = perf_counter()
            kernel()
            took = perf_counter() - t0
        finally:
            gc.enable()
        self.probes.append(took)
        return took

    def scale(self) -> float:
        """Reference seconds per wall second, by the mean probe."""
        return PROBE_REF_S / statistics.fmean(self.probes)
