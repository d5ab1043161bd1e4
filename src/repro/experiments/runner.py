"""One simulation cell: (programs x policy x link point x faults x seed).

:func:`run_point` is the only place the experiment layer turns a cell
into a :class:`~repro.core.session.SimulationSession`.  It owns nothing
scenario-specific: callers hand it the program specs and a *policy
factory* (policies are stateful, so every cell needs a fresh instance)
and get back one :class:`SweepPoint`.  Whole matrices of cells run on
:class:`~repro.experiments.parallel.ParallelSweepExecutor`, which calls
:func:`run_point` once per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.core.policies import Policy
from repro.core.session import SimulationSession
from repro.core.shadow import SANITIZE_DEFAULT, run_shadowed
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.devices.specs import WnicSpec
from repro.experiments.config import ExperimentConfig
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.units import BytesPerSecond, Joules, Seconds

#: Builds a fresh policy instance for one run.
PolicyFactory = Callable[[], Policy]


@dataclass(frozen=True, slots=True)
class ProgramSet:
    """A picklable programs factory: a fixed tuple of specs.

    The figure builders historically passed lambdas as programs
    factories; those cannot cross a process boundary.  ``ProgramSet``
    is the value-object equivalent — calling it hands out a fresh list
    of the same immutable specs.
    """

    specs: tuple[ProgramSpec, ...]

    def __call__(self) -> list[ProgramSpec]:
        return list(self.specs)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One cell of a sweep: the link setting plus its run result."""

    policy: str
    latency: Seconds
    bandwidth_bps: BytesPerSecond
    result: RunResult

    @property
    def energy(self) -> Joules:
        return self.result.total_energy

    @property
    def time(self) -> Seconds:
        return self.result.end_time


def progress_line(point: SweepPoint) -> str:
    """One human-readable line per completed sweep cell.

    ``bandwidth_bps`` holds *bytes* per second, so both unit renderings
    are emitted: MB/s (bytes-based, what the simulator computes with)
    and Mbps (bits-based, how the paper labels its 802.11b link points).
    An earlier version printed only ``bw=...Mbps`` computed from the
    byte rate, which read as if the field itself were bits per second.
    """
    bps = point.bandwidth_bps
    return (f"{point.policy} @ lat={point.latency * 1e3:.0f}ms"
            f" bw={bps / 1e6:.1f}MB/s ({bps * 8 / 1e6:.1f}Mbps)"
            f" -> {point.energy:.1f} J")


def _build_session(programs_factory: Callable[[], list[ProgramSpec]],
                   policy: Policy, wnic_spec: WnicSpec,
                   config: ExperimentConfig,
                   faults: FaultSchedule | None) -> SimulationSession:
    return SimulationSession(programs_factory(), policy,
                             disk_spec=config.disk_spec,
                             wnic_spec=wnic_spec,
                             memory_bytes=config.memory_bytes,
                             seed=config.seed, faults=faults)


def run_point(programs_factory: Callable[[], list[ProgramSpec]],
              policy_factory: PolicyFactory,
              wnic_spec: WnicSpec,
              config: ExperimentConfig,
              *, faults: FaultSchedule | None = None,
              sanitize: bool | None = None) -> SweepPoint:
    """Run one policy on one workload at one link setting.

    ``faults`` must be a fresh (or rewound) schedule — its spin-up
    cursor is consumed by the run.

    ``sanitize`` (default: the ``REPRO_SANITIZE`` environment toggle)
    shadow-verifies the cell: if the run takes the BurstPlan fast path,
    a live-kernel twin is built from the same factories and the two
    replays are diffed at the bit level
    (:mod:`repro.core.shadow`).  The returned point is always the
    primary run's — a divergence raises instead of returning.
    """
    policy = policy_factory()
    session = _build_session(programs_factory, policy, wnic_spec,
                             config, faults)
    if sanitize is None:
        sanitize = SANITIZE_DEFAULT
    if sanitize:
        # Policies and devices are stateful: the shadow twin needs a
        # fresh policy instance, not a re-run of the primary's, and a
        # rewound fault schedule, since the primary consumed its
        # spin-up cursor.
        result = run_shadowed(
            session,
            lambda: _build_session(
                programs_factory, policy_factory(), wnic_spec, config,
                faults.copy() if faults is not None else None))
    else:
        result = session.run()
    return SweepPoint(policy=policy.name,
                      latency=wnic_spec.latency,
                      bandwidth_bps=wnic_spec.bandwidth_bps,
                      result=result)


def build_fault_schedule(faults: FaultSpec | None,
                         seed: int) -> FaultSchedule | None:
    """A fresh per-cell schedule for an enabled spec, else None.

    Schedules carry a mutable spin-up cursor, so every cell gets its
    own; building from ``(spec, seed)`` keeps the timeline a pure
    function of the cache-key inputs, and the timelines themselves are
    generated once per key.
    """
    if faults is None or not faults.enabled:
        return None
    return FaultSchedule(faults, seed=seed)
