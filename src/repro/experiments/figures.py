"""Builders for the paper's Figures 1-5 (§3.3).

Each figure has an (a) panel — total I/O energy vs WNIC latency at
11 Mbps — and a (b) panel — energy vs WNIC bandwidth at 1 ms — for one
workload and a set of policies:

====== ===================== ==========================================
figure workload              §3.3 scenario
====== ===================== ==========================================
1      grep + make           programming
2      mplayer               media streaming
3      thunderbird           email read-then-search
4      grep+make ∥ xmms      forced disk spin-up (adds FlexFetch-static)
5      acroread              invalid profile (profile run differs)
====== ===================== ==========================================

FlexFetch's profile is extracted from a *prior run* of the same
workload — which for every figure but 5 is the same trace being
replayed (a stable program, §1.2), and for Figure 5 is deliberately the
casual-reading execution while the replay is the bursty search run.

Every builder sweeps :func:`standard_policies` over its link points on
one :class:`~repro.experiments.parallel.ParallelSweepExecutor`; the
caller chooses workers, a run cache, a journal or supervision by
passing that executor.  :func:`fault_panel` sweeps the same policies
over wireless-outage rates at the default link.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import ExecutionProfile, profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.cache import payload_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import PolicyFactory, ProgramSet, SweepPoint
from repro.faults.schedule import FaultSpec
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)


@dataclass
class FigureResult:
    """Both panels of one figure."""

    figure_id: str
    title: str
    workload: str
    #: panel (a): policy -> points over the latency sweep.
    by_latency: dict[str, list[SweepPoint]] = field(default_factory=dict)
    #: panel (b): policy -> points over the bandwidth sweep.
    by_bandwidth: dict[str, list[SweepPoint]] = field(default_factory=dict)

    def curve_energy(self, policy: str, *, panel: str = "latency"
                     ) -> list[float]:
        """Energy series of one policy in sweep order."""
        curves = self.by_latency if panel == "latency" else self.by_bandwidth
        return [p.energy for p in curves[policy]]


@dataclass(frozen=True, slots=True)
class FlexFetchFactory:
    """Picklable, cache-keyable FlexFetch policy factory.

    Historically a closure; made a value object so sweep cells can be
    described for run-cache keys.  The ``__init__`` fields are exactly
    the inputs the built policy's behaviour depends on, which is what
    :meth:`cache_token` promises.
    """

    profile: ExecutionProfile
    loss_rate: float
    stage_length: float
    adaptive: bool = True
    #: ``payload_digest(profile)``, filled by the first
    #: :meth:`cache_token` call.  Hashing a profile costs up to tens of
    #: milliseconds and a sweep keys every cell, so it is done once per
    #: factory — and lazily, because building a factory that is never
    #: keyed must stay cheap.
    profile_digest: str | None = field(default=None, init=False,
                                       compare=False, repr=False)

    def __call__(self) -> FlexFetchPolicy:
        return FlexFetchPolicy(self.profile, FlexFetchConfig(
            loss_rate=self.loss_rate,
            stage_length=self.stage_length,
            adaptive=self.adaptive))

    def cache_token(self) -> dict[str, object]:
        # The profile participates by content digest, not by value.
        digest = self.profile_digest
        if digest is None:
            digest = payload_digest(self.profile)
            object.__setattr__(self, "profile_digest", digest)
        return {"factory": type(self).__qualname__,
                "profile_digest": digest,
                "loss_rate": self.loss_rate,
                "stage_length": self.stage_length,
                "adaptive": self.adaptive}


def standard_policies(profile: ExecutionProfile,
                      config: ExperimentConfig,
                      *, include_static: bool = False
                      ) -> dict[str, PolicyFactory]:
    """The paper's four policies (plus, optionally, FlexFetch-static).

    FlexFetch is built from ``profile`` with ``config``'s loss rate and
    stage length.  Every figure, the fault panel, ``flexfetch run`` and
    the seed-sensitivity report sweep this one set.
    """
    policies: dict[str, PolicyFactory] = {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "BlueFS": BlueFSPolicy,
    }
    if include_static:
        policies["FlexFetch-static"] = FlexFetchFactory(
            profile, config.loss_rate, config.stage_length, adaptive=False)
    policies["FlexFetch"] = FlexFetchFactory(
        profile, config.loss_rate, config.stage_length)
    return policies


def _run_figure(figure_id: str, title: str,
                programs_factory: Callable[[], list[ProgramSpec]],
                workload_name: str,
                policies: dict[str, PolicyFactory],
                config: ExperimentConfig,
                *, panels: str = "ab",
                progress: Callable[[str], None] | None = None,
                executor: ParallelSweepExecutor | None = None
                ) -> FigureResult:
    executor = executor or ParallelSweepExecutor()
    result = FigureResult(figure_id=figure_id, title=title,
                          workload=workload_name)
    if "a" in panels:
        result.by_latency = executor.run_sweep(
            programs_factory, policies, config.latency_points(), config,
            progress=progress)
    if "b" in panels:
        result.by_bandwidth = executor.run_sweep(
            programs_factory, policies, config.bandwidth_points(), config,
            progress=progress)
    return result


# ----------------------------------------------------------------------
# Figure 1 — programming scenario: grep + make
# ----------------------------------------------------------------------
def figure1(config: ExperimentConfig | None = None, *, panels: str = "ab",
            progress: Callable[[str], None] | None = None,
            executor: ParallelSweepExecutor | None = None) -> FigureResult:
    """grep+make energy vs WNIC latency (a) and bandwidth (b).

    ``panels`` picks the panel(s), ``progress`` gets a line per cell
    and ``executor`` runs the cells (default: serial, uncached).
    Figures 2-5 take the same options.
    """
    config = config or ExperimentConfig()
    trace = generate_grep_make(config.seed)
    profile = profile_from_trace(trace)
    return _run_figure(
        "fig1", "grep+make: energy vs WNIC latency/bandwidth",
        ProgramSet((ProgramSpec(trace).prepared(),)), trace.name,
        standard_policies(profile, config), config,
        panels=panels, progress=progress, executor=executor)


# ----------------------------------------------------------------------
# Figure 2 — media streaming: mplayer
# ----------------------------------------------------------------------
def figure2(config: ExperimentConfig | None = None, *, panels: str = "ab",
            progress: Callable[[str], None] | None = None,
            executor: ParallelSweepExecutor | None = None) -> FigureResult:
    """mplayer energy vs WNIC latency (a) and bandwidth (b)."""
    config = config or ExperimentConfig()
    trace = generate_mplayer(config.seed)
    profile = profile_from_trace(trace)
    return _run_figure(
        "fig2", "mplayer: energy vs WNIC latency/bandwidth",
        ProgramSet((ProgramSpec(trace).prepared(),)), trace.name,
        standard_policies(profile, config), config,
        panels=panels, progress=progress, executor=executor)


# ----------------------------------------------------------------------
# Figure 3 — email: thunderbird
# ----------------------------------------------------------------------
def figure3(config: ExperimentConfig | None = None, *, panels: str = "ab",
            progress: Callable[[str], None] | None = None,
            executor: ParallelSweepExecutor | None = None) -> FigureResult:
    """Thunderbird energy vs WNIC latency (a) and bandwidth (b)."""
    config = config or ExperimentConfig()
    trace = generate_thunderbird(config.seed)
    profile = profile_from_trace(trace)
    return _run_figure(
        "fig3", "Thunderbird: energy vs WNIC latency/bandwidth",
        ProgramSet((ProgramSpec(trace).prepared(),)), trace.name,
        standard_policies(profile, config), config,
        panels=panels, progress=progress, executor=executor)


# ----------------------------------------------------------------------
# Figure 4 — forced spin-up: grep+make with xmms in the background
# ----------------------------------------------------------------------
def figure4(config: ExperimentConfig | None = None, *, panels: str = "ab",
            progress: Callable[[str], None] | None = None,
            executor: ParallelSweepExecutor | None = None) -> FigureResult:
    """grep+make ∥ xmms, including the FlexFetch-static ablation.

    xmms is a *non-profiled* program whose mp3 files exist only on the
    local disk, so its requests are disk-pinned and keep the disk spun
    up — the §2.3.3 dynamic.
    """
    config = config or ExperimentConfig()
    fg, bg = generate_grep_make_xmms(config.seed)
    profile = profile_from_trace(fg)
    return _run_figure(
        "fig4", "grep+make / xmms: energy with a forced-spun-up disk",
        ProgramSet((ProgramSpec(fg).prepared(),
                    ProgramSpec(bg, profiled=False,
                                disk_pinned=True).prepared())),
        f"{fg.name} | {bg.name}",
        standard_policies(profile, config, include_static=True), config,
        panels=panels, progress=progress, executor=executor)


# ----------------------------------------------------------------------
# Figure 5 — invalid profile: acroread
# ----------------------------------------------------------------------
def figure5(config: ExperimentConfig | None = None, *, panels: str = "ab",
            progress: Callable[[str], None] | None = None,
            executor: ParallelSweepExecutor | None = None) -> FigureResult:
    """Acroread search run driven by the stale casual-reading profile."""
    config = config or ExperimentConfig()
    search = generate_acroread_search_run(config.seed)
    stale = profile_from_trace(generate_acroread_profile_run(config.seed))
    return _run_figure(
        "fig5", "Acroread: energy with an out-of-date profile",
        ProgramSet((ProgramSpec(search).prepared(),)), search.name,
        standard_policies(stale, config, include_static=True), config,
        panels=panels, progress=progress, executor=executor)


# ----------------------------------------------------------------------
# Fault panel — energy under increasing wireless-outage rates
# ----------------------------------------------------------------------
@dataclass
class FaultPanelResult:
    """Energy-vs-outage-rate curves for all policies on one workload."""

    workload: str
    rates: tuple[float, ...]
    #: policy -> points at the default link, in ``rates`` order.
    curves: dict[str, list[SweepPoint]] = field(default_factory=dict)

    def curve_energy(self, policy: str) -> list[float]:
        return [p.energy for p in self.curves[policy]]


def fault_panel(config: ExperimentConfig | None = None, *,
                scenario: str = "grep+make",
                rates: tuple[float, ...] = (0.0, 0.002, 0.005, 0.01, 0.02),
                base_spec: FaultSpec | None = None,
                progress: Callable[[str], None] | None = None
                ) -> FaultPanelResult:
    """All four policies' energy as the wireless link degrades.

    Each point replays ``scenario`` at the paper's default link settings
    under a deterministic fault schedule whose Poisson outage rate is
    swept over ``rates`` (a rate of 0 disables the fault layer
    entirely, giving the fault-free baseline).  Any other fault knobs —
    rate-fallback windows, spin-up failures — come from ``base_spec``.
    Every policy sees the same fault timeline at a given rate: each
    cell rebuilds its schedule from ``(spec, config.seed)``.
    """
    from repro.traces.synth.scenarios import build_scenario
    config = config or ExperimentConfig()
    built = build_scenario(scenario, seed=config.seed)
    policies = standard_policies(built.profile, config)
    executor = ParallelSweepExecutor()
    panel = FaultPanelResult(workload=built.name, rates=tuple(rates))
    panel.curves = {name: [] for name in policies}
    for rate in rates:
        spec = replace(base_spec or FaultSpec(), outage_rate=rate)
        rate_progress = None if progress is None else \
            (lambda line, rate=rate: progress(f"outage={rate:g}/s {line}"))
        curves = executor.run_sweep(
            ProgramSet(built.programs), policies, [config.wnic_spec],
            config, progress=rate_progress, faults=spec)
        for name, points in curves.items():
            panel.curves[name].extend(points)
    return panel


#: Registry used by the CLI and the benchmark harness.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
}
