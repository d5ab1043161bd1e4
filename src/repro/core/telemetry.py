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
"""

from __future__ import annotations

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
