"""Calibrated seconds: host time measured against a frozen loop.

The host this benchmark was defined on is a shared 2-CPU VM whose CPU
speed changes in episodes of roughly 100 ms, running up to twice as
slow while another tenant is busy.  Host seconds of one cell differ by
30 % between runs, and a calibration loop timed only just before and
just after a cell of 0.1-2 s misses most episodes that hit the cell.
So the loop is also sampled *during* every timed span: a one-shot
wall-clock timer (``SIGALRM``) fires after a random 2-6 ms, runs the
loop once inside its handler and re-arms itself.  The delays are random
so that the samples do not lock onto the kernel's 4 ms tick, where the
host's interference is not typical (a tick-driven ``ITIMER_PROF``
sampler under-corrected noisy cells).  Each span is reported as::

    calibrated_s = work_s * REF_NOMINAL_S / ref_s

``work_s`` is the span's host time minus the time the loop runs inside
it took; ``ref_s`` is the mean duration of every loop run in the span
plus one just before and one just after it.

The loop is pure Python (heapq push/pop, dict stores and float adds)
with the collector off, and imports nothing from ``repro``.  Neither the
loop nor :data:`REF_NOMINAL_S` may ever be edited: every recorded
baseline is expressed in these units.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter
from typing import TypeVar

#: Host seconds one loop run took on the defining host when its CPU was
#: not slowed down.  Frozen: it fixes the unit of every baseline.
REF_NOMINAL_S = 0.00016
#: Range of the random wall-clock delay between two in-span loop runs
#: (about 4 % overhead).
PROBE_DELAY_S = (0.002, 0.006)
_LOOP_ITERATIONS = 600

T = TypeVar("T")


def calibration_loop() -> float:
    """Run the frozen loop once with the collector off; host seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list[int] = []
        table: dict[int, float] = {}
        acc = 0.0
        t0 = perf_counter()
        for i in range(_LOOP_ITERATIONS):
            heapq.heappush(heap, (i * 7919) % 1009)
            if len(heap) > 32:
                heapq.heappop(heap)
            table[i & 255] = acc
            acc += 0.5
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class Timing:
    """One timed span."""

    #: host seconds from entry to exit, loop runs included.
    host_s: float
    #: host seconds minus the loop runs taken inside the span.
    work_s: float
    #: mean host seconds of one loop run around and inside the span.
    ref_s: float

    @property
    def calibrated_s(self) -> float:
        return self.work_s * REF_NOMINAL_S / self.ref_s


class Sampler:
    """Times spans while sampling the calibration loop inside them.

    ``on_probe`` receives each in-span loop's duration; the tracer uses
    it to keep loop time out of the layer that happened to be running.
    """

    def __init__(self, on_probe: Callable[[float], None] | None = None
                 ) -> None:
        self.on_probe = on_probe
        self._inside: list[float] = []
        self._delays = random.Random(0)
        self._active = False

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL,
                         self._delays.uniform(*PROBE_DELAY_S))

    def _handler(self, signum: int, frame: object) -> None:
        if not self._active:  # delivered just as the span ended
            return
        dt = calibration_loop()
        self._inside.append(dt)
        if self.on_probe is not None:
            self.on_probe(dt)
        self._arm()

    def measure(self, fn: Callable[[], T]) -> tuple[T, Timing]:
        """Call ``fn`` once; returns its result and its timing.

        The span starts from a collected heap, so a collection of the
        previous span's garbage never lands in it.
        """
        gc.collect()
        before = calibration_loop()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        self._active = True
        self._arm()
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            host = perf_counter() - t0
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        after = calibration_loop()
        ref = statistics.fmean([before, *inside, after])
        return result, Timing(host_s=host, work_s=host - sum(inside),
                              ref_s=ref)
