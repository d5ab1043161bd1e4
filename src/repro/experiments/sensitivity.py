"""Seed-sensitivity analysis.

The synthetic workloads are random draws; a reproduction claim is only
as strong as its stability across those draws.  This module re-runs a
scenario under several seeds and reports, per policy, the mean / spread
of total energy plus how often each qualitative ordering held — the
quantitative backing for EXPERIMENTS.md's "shape holds" statements.
Every seed's cells run on the same sweep executor as the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import standard_policies
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet
from repro.traces.trace import Trace


@dataclass(frozen=True, slots=True)
class PolicyStats:
    """Energy distribution of one policy across seeds."""

    policy: str
    energies: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.energies))

    @property
    def std(self) -> float:
        return float(np.std(self.energies))

    @property
    def cv(self) -> float:
        """Coefficient of variation (spread relative to the mean)."""
        return self.std / self.mean if self.mean else 0.0


@dataclass(frozen=True, slots=True)
class SensitivityReport:
    """Cross-seed stability of one scenario."""

    scenario: str
    seeds: tuple[int, ...]
    stats: tuple[PolicyStats, ...]
    #: fraction of seeds in which each "a < b" ordering held.
    ordering_rates: dict[str, float]

    def stat(self, policy: str) -> PolicyStats:
        for s in self.stats:
            if s.policy == policy:
                return s
        raise KeyError(policy)

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}  (seeds {list(self.seeds)})"]
        for s in self.stats:
            lines.append(f"  {s.policy:18s} mean={s.mean:9.1f} J"
                         f"  std={s.std:7.1f}  cv={s.cv:6.1%}")
        for ordering, rate in sorted(self.ordering_rates.items()):
            lines.append(f"  holds in {rate:6.1%} of seeds: {ordering}")
        return "\n".join(lines)


def analyze_scenario(
        scenario: str,
        trace_factory: Callable[[int], Trace],
        seeds: Sequence[int],
        *,
        orderings: Sequence[tuple[str, str]] = (),
        config: ExperimentConfig | None = None) -> SensitivityReport:
    """Run the standard four policies on ``trace_factory(seed)`` for
    every seed and aggregate.

    Each seed is one sweep of
    :func:`~repro.experiments.figures.standard_policies` at
    ``config``'s default link, with ``config.seed`` replaced by that
    seed; FlexFetch takes ``config``'s loss rate and stage length.
    ``orderings`` lists ``(cheaper, dearer)`` policy-name pairs whose
    per-seed truth rate is reported, e.g. ``[("FlexFetch",
    "WNIC-only")]``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    config = config or ExperimentConfig()
    executor = ParallelSweepExecutor()

    by_policy: dict[str, list[float]] = {}
    per_seed: list[dict[str, float]] = []
    for seed in seeds:
        trace = trace_factory(seed)
        seeded = replace(config, seed=seed)
        curves = executor.run_sweep(
            ProgramSet((ProgramSpec(trace),)),
            standard_policies(profile_from_trace(trace), seeded),
            [seeded.wnic_spec], seeded)
        row = {name: point.energy for name, (point,) in curves.items()}
        for name, energy in row.items():
            by_policy.setdefault(name, []).append(energy)
        per_seed.append(row)

    rates: dict[str, float] = {}
    for cheaper, dearer in orderings:
        held = sum(1 for row in per_seed
                   if row[cheaper] < row[dearer])
        rates[f"{cheaper} < {dearer}"] = held / len(per_seed)

    stats = tuple(PolicyStats(policy=name, energies=tuple(values))
                  for name, values in by_policy.items())
    return SensitivityReport(scenario=scenario, seeds=tuple(seeds),
                             stats=stats, ordering_rates=rates)
