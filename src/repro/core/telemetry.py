"""Telemetry layer: run accounting and pluggable metrics sinks.

:class:`RunResult` is everything a replay produces — the numbers every
figure, table and benchmark consumes.  It is *built* here (from the
devices' meters and the policy's tallies) rather than inside the
simulation loop, so the loop stays pure orchestration.

:class:`MetricsSink` is the observation seam: sinks see the run begin,
every device service and profiled syscall, and the finished
:class:`RunResult`.  Sinks are strictly read-only passengers —
:class:`SinkSet` isolates them so a raising sink is disabled and
reported, never allowed to perturb simulation state or determinism.

:class:`StreamingStat` / :class:`P2Quantile` are the out-of-core
aggregation primitives: count/sum/min/max plus P² streaming
percentiles in O(1) memory, so a sweep can fold thousands of cells
without retaining every :class:`RunResult` (see
:class:`~repro.experiments.runner.SweepAggregate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.units import Bytes, Joules, Seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass
class RunResult:
    """Everything a replay produces."""

    policy: str
    end_time: Seconds
    foreground_time: Seconds
    disk_energy: Joules
    wnic_energy: Joules
    requests: int
    device_requests: dict[str, int]
    device_bytes: dict[str, int]
    cache_hit_ratio: float
    disk_spinups: int
    disk_spindowns: int
    wnic_wakeups: int
    disk_breakdown: dict[str, float] = field(default_factory=dict)
    wnic_breakdown: dict[str, float] = field(default_factory=dict)
    disk_residency: dict[str, float] = field(default_factory=dict)
    wnic_residency: dict[str, float] = field(default_factory=dict)
    #: the spin-ups that were wakes from sleep, and the CAM->PSM dozes.
    disk_wakes: int = 0
    wnic_dozes: int = 0
    #: fault-injection accounting (all zero without a fault schedule).
    disk_spinup_failures: int = 0
    fault_retries: dict[str, int] = field(default_factory=dict)
    fault_failovers: dict[str, int] = field(default_factory=dict)
    fault_wasted_energy: dict[str, float] = field(default_factory=dict)
    #: pages still dirty when the run ends: never written back and never
    #: charged (``PAGE_SIZE`` bytes each).
    dirty_pages_at_end: int = 0

    @property
    def total_energy(self) -> Joules:
        """Total I/O energy: disk plus WNIC (the paper's y-axis)."""
        return self.disk_energy + self.wnic_energy

    def summary(self) -> str:
        """One-line human-readable result."""
        return (f"{self.policy:18s} E={self.total_energy:8.1f} J"
                f" (disk {self.disk_energy:7.1f} / wnic"
                f" {self.wnic_energy:7.1f})  T={self.end_time:8.1f} s")


class MetricsSink(Protocol):
    """Observer of one replay.  Implementations must be read-only.

    Every hook receives plain values (never live simulation objects), so
    even a misbehaving sink has nothing to mutate; :class:`SinkSet`
    additionally fences exceptions.
    """

    def on_run_begin(self, policy: str, now: Seconds) -> None: ...

    def on_service(self, program: str, source: str, nbytes: Bytes,
                   energy: Joules, completion: Seconds) -> None: ...

    def on_syscall(self, program: str, op: str, nbytes: Bytes,
                   now: Seconds) -> None: ...

    def on_run_end(self, result: RunResult) -> None: ...


class NullSink:
    """A sink that ignores everything (the do-nothing baseline)."""

    def on_run_begin(self, policy: str, now: Seconds) -> None:
        return None

    def on_service(self, program: str, source: str, nbytes: Bytes,
                   energy: Joules, completion: Seconds) -> None:
        return None

    def on_syscall(self, program: str, op: str, nbytes: Bytes,
                   now: Seconds) -> None:
        return None

    def on_run_end(self, result: RunResult) -> None:
        return None


class RecordingSink:
    """A sink that appends every event to in-memory lists (for tests
    and ad-hoc inspection)."""

    def __init__(self) -> None:
        self.begins: list[tuple[str, float]] = []
        self.services: list[tuple[str, str, int, float, float]] = []
        self.syscalls: list[tuple[str, str, int, float]] = []
        self.results: list[RunResult] = []

    def on_run_begin(self, policy: str, now: Seconds) -> None:
        self.begins.append((policy, now))

    def on_service(self, program: str, source: str, nbytes: Bytes,
                   energy: Joules, completion: Seconds) -> None:
        self.services.append((program, source, nbytes, energy,
                              completion))

    def on_syscall(self, program: str, op: str, nbytes: Bytes,
                   now: Seconds) -> None:
        self.syscalls.append((program, op, nbytes, now))

    def on_run_end(self, result: RunResult) -> None:
        self.results.append(result)


class SinkSet:
    """Fan-out to the attached sinks with error isolation.

    A sink that raises is disabled for the rest of the run and the
    ``(sink, hook, message)`` triple is recorded in :attr:`errors`; the
    simulation itself never observes sink failures, so results are
    bit-identical with or without broken sinks.
    """

    def __init__(self, sinks: tuple[MetricsSink, ...] = ()) -> None:
        self._sinks: list[MetricsSink] = list(sinks)
        self.errors: list[tuple[str, str, str]] = []

    def __len__(self) -> int:
        return len(self._sinks)

    def add(self, sink: MetricsSink) -> None:
        self._sinks.append(sink)

    def _dispatch(self, hook: str, *args: object) -> None:
        for sink in list(self._sinks):
            try:
                getattr(sink, hook)(*args)
            except Exception as exc:
                self._sinks.remove(sink)
                self.errors.append(
                    (type(sink).__name__, hook, str(exc)))

    # -- fan-out hooks --------------------------------------------------
    def on_run_begin(self, policy: str, now: Seconds) -> None:
        self._dispatch("on_run_begin", policy, now)

    def on_service(self, program: str, source: str, nbytes: Bytes,
                   energy: Joules, completion: Seconds) -> None:
        self._dispatch("on_service", program, source, nbytes, energy,
                       completion)

    def on_syscall(self, program: str, op: str, nbytes: Bytes,
                   now: Seconds) -> None:
        self._dispatch("on_syscall", program, op, nbytes, now)

    def on_run_end(self, result: RunResult) -> None:
        self._dispatch("on_run_end", result)


class P2Quantile:
    """Streaming quantile estimation by the P² algorithm.

    Jain & Chlamtac's piecewise-parabolic estimator: five markers track
    the running quantile in O(1) memory, adjusted per observation.  The
    estimate is **order-sensitive**, which is why the sweep layers fold
    points in sweep-index order (parallel completions are reordered
    first) — the streamed estimate then matches a serial fold
    bit-for-bit.  With fewer than five observations the exact
    nearest-rank value of the buffered samples is returned.
    """

    __slots__ = ("q", "_initial", "_heights", "_n", "_ns", "_dns")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] | None = None
        self._n = [0, 1, 2, 3, 4]
        self._ns = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
        self._dns = [0.0, q / 2, q, (1 + q) / 2, 1.0]

    @property
    def count(self) -> int:
        if self._heights is None:
            return len(self._initial)
        return self._n[4] + 1

    def observe(self, x: float) -> None:
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._heights = sorted(self._initial)
            return
        h, n = self._heights, self._n
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        elif x < h[1]:
            k = 0
        elif x < h[2]:
            k = 1
        elif x < h[3]:
            k = 2
        else:
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._ns[i] += self._dns[i]
        for i in range(1, 4):
            excess = self._ns[i] - n[i]
            if (excess >= 1.0 and n[i + 1] - n[i] > 1) or \
                    (excess <= -1.0 and n[i - 1] - n[i] < -1):
                d = 1 if excess >= 0.0 else -1
                candidate = self._parabolic(i, d)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, d)
                n[i] += d

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._n
        assert h is not None
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._n
        assert h is not None
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    def value(self) -> float:
        """The current quantile estimate (NaN with no observations)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return math.nan
        ordered = sorted(self._initial)
        rank = round(self.q * (len(ordered) - 1))
        return ordered[rank]


class StreamingStat:
    """O(1)-memory summary of a value stream.

    Exact count/sum/min/max/mean plus P² percentile estimates.  The
    default percentiles (p50/p90) are what the sweep aggregate reports;
    pass a different ``quantiles`` tuple to track others.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_estimators")

    DEFAULT_QUANTILES = (0.5, 0.9)

    def __init__(self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
                 ) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._estimators = {float(q): P2Quantile(q) for q in quantiles}

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        for estimator in self._estimators.values():
            estimator.observe(x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Current estimate of the tracked quantile ``q``."""
        return self._estimators[float(q)].value()

    def as_dict(self) -> dict[str, float]:
        """Plain-value summary (stable keys, exact floats)."""
        summary = {
            "count": float(self.count),
            "sum": self.total,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
            "mean": self.mean,
        }
        for q, estimator in sorted(self._estimators.items()):
            summary[f"p{q * 100:g}"] = estimator.value()
        return summary


def build_run_result(env: MobileSystem, *, policy_name: str,
                     routed_requests: dict[str, int],
                     routed_bytes: dict[str, int],
                     end_time: Seconds, foreground_time: Seconds,
                     requests: int,
                     fault_retries: dict[str, int],
                     fault_failovers: dict[str, int],
                     fault_wasted_energy: dict[str, float]) -> RunResult:
    """Assemble the accounting of a finished replay.

    ``env`` must already be advanced to ``end_time`` so the devices'
    meters and residencies are settled; the books then balance exactly.
    """
    return RunResult(
        policy=policy_name,
        end_time=end_time,
        foreground_time=foreground_time,
        disk_energy=env.disk.energy(end_time),
        wnic_energy=env.wnic.energy(end_time),
        requests=requests,
        device_requests=dict(routed_requests),
        device_bytes=dict(routed_bytes),
        cache_hit_ratio=env.kernel.cache.stats.hit_ratio,
        disk_spinups=env.disk.spinup_count,
        disk_spindowns=env.disk.spindown_count,
        wnic_wakeups=env.wnic.wakeup_count,
        disk_wakes=env.disk.wake_count,
        wnic_dozes=env.wnic.doze_count,
        disk_breakdown=env.disk.meter.breakdown(),
        wnic_breakdown=env.wnic.meter.breakdown(),
        disk_residency=env.disk.residency(end_time),
        wnic_residency=env.wnic.residency(end_time),
        disk_spinup_failures=env.disk.spinup_failure_count,
        fault_retries=dict(fault_retries),
        fault_failovers=dict(fault_failovers),
        fault_wasted_energy=dict(fault_wasted_energy),
        dirty_pages_at_end=env.kernel.writeback.dirty_count,
    )
