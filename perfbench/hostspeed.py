"""Host speed sampler: scales the benchmark's times to a fixed host speed.

The benchmark runs on small virtual machines whose CPUs other tenants of
the host slow by up to about 2x, in stretches of a second or more that
drift over minutes.  Each virtual CPU is slowed on its own, so a probe
running beside the program sees nothing, and a probe timed between two
multi-second commands misses most of what happened during them.

A `Sampler` therefore runs inside each benchmarked process.  Every
INTERVAL_S of wall time a SIGALRM handler times one fixed unit of
interpreter work, about 0.6 ms, in between the program's own bytecodes.  The
mean unit time over the process's life measures how fast the host ran the
program.  The benchmark multiplies the process's times by
REFERENCE_S / (that mean), which gives seconds at the reference host speed.

The unit does work of the same kind as walshframes (small slotted objects,
tuple-keyed dict traffic, small numpy products) and calls nothing of
walshframes, so a change to the program cannot move it.  Its slowdown
tracks the program's closely; that of a tight loop over a prebuilt table
did not.  The garbage collector is off while a unit runs and
the unit frees all it allocates, so the program's collections run when they
would without it.  The sampler adds about 1% to the time of every process
it samples.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# seconds of one unit at the reference host speed: its median on a 2-vCPU
# KVM guest (Intel Xeon, Sapphire Rapids) with Python 3.11 and numpy 2.4
REFERENCE_S = 0.0006
_CELLS = 1000
_KEYS = 97
_DOTS = 30
_VECTOR = np.arange(27.0)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def unit() -> float:
    """One fixed unit of probe work; returns its wall seconds."""
    t0 = time.perf_counter()
    table = {}
    for i in range(_CELLS):
        cell = _Cell((i * 7) % 13, i)
        table[(cell.key, i % _KEYS)] = cell
    total = 0
    for k in range(_CELLS):
        cell = table.get((k % 13, k % _KEYS))
        if cell is not None:
            total += cell.value
    for _ in range(_DOTS):
        total += float(_VECTOR @ _VECTOR)
    return time.perf_counter() - t0


class Sampler:
    """Samples the host speed of this process from a SIGALRM handler."""

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.times.append(unit())
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stops sampling; returns the mean unit seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:
            self.times.append(unit())
        return statistics.fmean(self.times)


def scale(unit_s: float) -> float:
    """Factor that turns seconds measured at a unit time of `unit_s` into
    seconds at the reference host speed."""
    return REFERENCE_S / unit_s
