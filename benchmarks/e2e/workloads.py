"""The four workloads and the cells they run, built from public API only.

A *cell* is one ``run_point`` call: one policy at one WNIC link point
on the workload's programs.  Cells run serially, each starting when the
previous one ends (a closed loop with one client).  The workload seed
feeds trace synthesis, the disk layout and the fault timeline; the
program receives only the generated inputs.

Importing this module imports ``repro``: only child processes do.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.bluefs import BlueFSPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.devices.specs import WnicSpec
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.runner import (
    PolicyFactory,
    ProgramSet,
    SweepPoint,
    build_fault_schedule,
)
from repro.faults.schedule import FaultSpec
from repro.traces.synth import (
    generate_grep_make,
    generate_grep_make_xmms,
    generate_thunderbird,
)
from repro.traces.trace import Trace

MBPS = 1e6 / 8
#: (latency s, bandwidth bytes/s) link points shared by two workloads.
THREE_LINKS = ((1e-3, 11 * MBPS), (10e-3, 11 * MBPS), (1e-3, 2 * MBPS))
#: The reduced golden grid of Figure 3: latencies at 11 Mbps, then the
#: 802.11b bandwidths at 1 ms (``benchmarks/conftest.py``).
FIG3_LINKS = (tuple((lat, 11 * MBPS)
                    for lat in (0.0, 5e-3, 10e-3, 20e-3, 40e-3))
              + tuple((1e-3, mb * MBPS) for mb in (1.0, 2.0, 5.5, 11.0)))


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    #: seed -> [(trace, profiled, disk_pinned)]; the first is profiled.
    synth: Callable[[int], list[tuple[Trace, bool, bool]]]
    links: tuple[tuple[float, float], ...]
    include_static: bool = False
    faults: FaultSpec | None = None
    #: cells replay a BurstPlan: the output check also shadow-replays a
    #: cell on the event loop and, at the golden seed, matches the
    #: energies in golden.json ``fig3_grid``.
    fast_path: bool = False


def _grep_make(seed: int) -> list[tuple[Trace, bool, bool]]:
    return [(generate_grep_make(seed), True, False)]


def _grep_make_xmms(seed: int) -> list[tuple[Trace, bool, bool]]:
    fg, bg = generate_grep_make_xmms(seed)
    return [(fg, True, False), (bg, False, True)]


def _thunderbird(seed: int) -> list[tuple[Trace, bool, bool]]:
    return [(generate_thunderbird(seed), True, False)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "writes-eventloop",
        "grep+make writes, so every cell runs the event loop and the live"
        " kernel path with dirty-page write-back",
        _grep_make, THREE_LINKS),
    Workload(
        "concurrent-pinned",
        "two programs share one event loop and cache; disk-pinned xmms"
        " keeps the disk busy (multi-program scheduling, free-riding)",
        _grep_make_xmms, ((1e-3, 11 * MBPS), (1e-3, 2 * MBPS)),
        include_static=True),
    Workload(
        "reads-fastpath",
        "all-read single program: every cell replays a BurstPlan, so"
        " routing, devices and the cost model dominate",
        _thunderbird, FIG3_LINKS, fast_path=True),
    Workload(
        "faulted-reads",
        "faults refuse the fast path, so reads go through the live kernel"
        " and the router's retry and failover path",
        _thunderbird, THREE_LINKS,
        faults=FaultSpec(outage_rate=0.05, rate_flap_rate=0.02,
                         spinup_fail_prob=0.3)),
)}


def link_key(latency: float, bandwidth_bps: float) -> str:
    """``1ms@11Mbps``-style name of a link point."""
    return f"{latency * 1e3:g}ms@{bandwidth_bps / MBPS:g}Mbps"


@dataclass(frozen=True, slots=True)
class Cell:
    key: str
    link: str
    policy: str
    wnic: WnicSpec


class Prepared:
    """A workload's inputs for one seed, ready to run cells."""

    def __init__(self, workload: Workload, seed: int,
                 programs: ProgramSet,
                 policies: dict[str, PolicyFactory]) -> None:
        self.workload = workload
        self.seed = seed
        self.config = ExperimentConfig(seed=seed)
        self.programs = programs
        self.policies = policies
        self.record_count = sum(spec.compiled.record_count
                                for spec in programs.specs)
        self.cells = [
            Cell(f"{link_key(lat, bw)}/{name}", link_key(lat, bw), name,
                 self.config.wnic_at(latency=lat, bandwidth_bps=bw))
            for lat, bw in workload.links for name in policies]
        #: the set-up cell: WNIC-only at the first link point.
        self.warmup = next(c for c in self.cells if c.policy == "WNIC-only")

    def run(self, cell: Cell, *, sanitize: bool = False) -> SweepPoint:
        """One cell, exactly as a serial sweep runs it.

        ``runner.run_point`` is looked up on the module at call time so
        the tracer's wrapper, when installed, sees the call.
        """
        return runner.run_point(
            self.programs, self.policies[cell.policy], cell.wnic,
            self.config,
            faults=build_fault_schedule(self.workload.faults, self.seed),
            sanitize=sanitize)


def compile_programs(traces: list[tuple[Trace, bool, bool]]) -> ProgramSet:
    return ProgramSet(tuple(
        ProgramSpec(trace, profiled=profiled,
                    disk_pinned=pinned).prepared()
        for trace, profiled, pinned in traces))


def build_policies(workload: Workload, trace: Trace,
                   config: ExperimentConfig) -> dict[str, PolicyFactory]:
    """The figure policy set, profiled on the workload's own trace."""
    profile = profile_from_trace(trace)
    policies: dict[str, PolicyFactory] = {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "BlueFS": BlueFSPolicy,
    }
    if workload.include_static:
        policies["FlexFetch-static"] = FlexFetchFactory(
            profile=profile, loss_rate=config.loss_rate,
            stage_length=config.stage_length, adaptive=False)
    policies["FlexFetch"] = FlexFetchFactory(
        profile=profile, loss_rate=config.loss_rate,
        stage_length=config.stage_length)
    return policies
