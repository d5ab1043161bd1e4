"""Figure-1 reduced grid under the shadow sanitizer, cell by cell.

grep+make writes, and single-program write traces replay a frozen
BurstPlan whose cursor keeps dirty pages and laptop-mode flushes live.
This module holds that claim to the bit on the grid ``test_fig1.py``
publishes: every cell takes the fast path, the shadow sanitizer
replays it again on the live kernel path, and the two replays are
diffed field by field.
"""

import repro.core.shadow as shadow_mod
from repro.experiments.figures import figure1
from repro.experiments.parallel import ParallelSweepExecutor


def test_fig1_grid_is_shadow_clean(monkeypatch, bench_config):
    diffed = []
    real_compare = shadow_mod.compare_runs

    def counting_compare(*args):
        diffed.append(args)
        real_compare(*args)

    # One serial worker runs every cell in this process, so the count
    # proves each cell took the fast path and was diffed against its
    # live-kernel twin; a divergence raises and fails the sweep.
    monkeypatch.setattr(shadow_mod, "compare_runs", counting_compare)
    figure = figure1(bench_config,
                     executor=ParallelSweepExecutor(1, sanitize=True))
    cells = sum(len(points) for curves in (figure.by_latency,
                                           figure.by_bandwidth)
                for points in curves.values())
    assert cells == len(figure.by_latency) * (
        len(bench_config.latency_sweep)
        + len(bench_config.bandwidth_sweep_bps))
    assert len(diffed) == cells
