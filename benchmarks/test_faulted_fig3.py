"""Figure-3 reduced grid under faults, shadow-checked cell by cell.

Faulted single-program read sessions replay the same frozen BurstPlan
as clean ones, because faults act only on the disk and the WNIC behind
the router.  This module holds that claim to the bit on the grid
``test_fig3.py`` pins: every cell runs the fast path under all three
fault processes at once, the shadow sanitizer replays it again on the
event loop, and the two replays are diffed field by field.
"""

import repro.core.shadow as shadow_mod
from benchmarks.conftest import BENCH_BANDWIDTHS, BENCH_LATENCIES
from repro.core.bluefs import BlueFSPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet
from repro.faults.schedule import FaultSpec
from repro.traces.synth import generate_thunderbird

FAULTS = FaultSpec(outage_rate=0.05, rate_flap_rate=0.02,
                   spinup_fail_prob=0.3)


def test_faulted_fig3_grid_is_shadow_clean(monkeypatch):
    config = ExperimentConfig(latency_sweep=BENCH_LATENCIES,
                              bandwidth_sweep_bps=BENCH_BANDWIDTHS)
    trace = generate_thunderbird(config.seed)
    policies = {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "BlueFS": BlueFSPolicy,
        "FlexFetch": FlexFetchFactory(
            profile=profile_from_trace(trace),
            loss_rate=config.loss_rate,
            stage_length=config.stage_length),
    }
    specs = [*config.latency_points(), *config.bandwidth_points()]
    diffed = []
    real_compare = shadow_mod.compare_runs

    def counting_compare(*args):
        diffed.append(args)
        real_compare(*args)

    # One serial worker runs every cell in this process, so the count
    # proves each cell took the fast path and was diffed against its
    # event-loop twin; a divergence raises and fails the sweep.
    monkeypatch.setattr(shadow_mod, "compare_runs", counting_compare)
    curves = ParallelSweepExecutor(1, sanitize=True).run_sweep(
        ProgramSet((ProgramSpec(trace).prepared(),)), policies, specs,
        config, faults=FAULTS)
    assert len(diffed) == len(policies) * len(specs)
    retries = sum(sum(p.result.fault_retries.values())
                  for points in curves.values() for p in points)
    assert retries > 0, "no fault fired anywhere on the grid"
