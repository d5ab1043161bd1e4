"""Unit tests for the seed-sensitivity analysis."""

from dataclasses import replace

import pytest

from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.runner import ProgramSet, run_point
from repro.experiments.sensitivity import (
    PolicyStats,
    analyze_scenario,
)
from tests.conftest import make_trace


def trace_factory(seed):
    """A deterministic-by-seed dense workload (disk-friendly).

    Big enough (~10 MB) that the disk's spin-up amortises; a small
    one-shot burst is legitimately cheaper over the network.
    """
    n = 80 + (seed % 3)
    calls = [(1, i * 131072, 131072, "read", i * 0.002)
             for i in range(n)]
    return make_trace(calls, name=f"t{seed}",
                      file_sizes={1: 96 * 131072})


def bursty_trace(seed):
    """Six read bursts apart by 8-13 s thinks: which device FlexFetch
    picks depends on its loss-rate budget."""
    calls = []
    t = 0.0
    offset = 0
    for burst in range(6):
        for _ in range(10):
            calls.append((1, offset, 65536, "read", t))
            offset += 65536
            t += 0.01
        t += 8.0 + burst
    return make_trace(calls, name=f"b{seed}", file_sizes={1: offset})


class TestPolicyStats:
    def test_moments(self):
        s = PolicyStats(policy="p", energies=(10.0, 20.0, 30.0))
        assert s.mean == pytest.approx(20.0)
        assert s.std == pytest.approx(8.1649658, rel=1e-6)
        assert s.cv == pytest.approx(s.std / 20.0)

    def test_zero_mean_cv(self):
        assert PolicyStats(policy="p", energies=(0.0,)).cv == 0.0


class TestAnalyzeScenario:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            analyze_scenario("x", trace_factory, [])

    def test_report_structure(self):
        report = analyze_scenario(
            "tiny", trace_factory, [1, 2],
            orderings=[("Disk-only", "WNIC-only")])
        assert report.scenario == "tiny"
        assert report.seeds == (1, 2)
        names = {s.policy for s in report.stats}
        assert names == {"Disk-only", "WNIC-only", "BlueFS", "FlexFetch"}
        for s in report.stats:
            assert len(s.energies) == 2
        assert set(report.ordering_rates) == {"Disk-only < WNIC-only"}
        assert 0.0 <= report.ordering_rates["Disk-only < WNIC-only"] <= 1.0

    def test_dense_workload_ordering(self):
        """On a pure dense burst the disk beats the network in every
        draw — the rate must be 1.0."""
        report = analyze_scenario(
            "dense", trace_factory, [1, 2, 3],
            orderings=[("Disk-only", "WNIC-only")])
        assert report.ordering_rates["Disk-only < WNIC-only"] == 1.0

    def test_stat_lookup(self):
        report = analyze_scenario("tiny", trace_factory, [1])
        assert report.stat("FlexFetch").policy == "FlexFetch"
        with pytest.raises(KeyError):
            report.stat("nope")

    def test_render(self):
        report = analyze_scenario(
            "tiny", trace_factory, [1],
            orderings=[("FlexFetch", "Disk-only")])
        text = report.render()
        assert "scenario: tiny" in text
        assert "FlexFetch" in text
        assert "%" in text

    def test_flexfetch_takes_the_configs_tunables(self):
        config = ExperimentConfig(loss_rate=0.05)
        report = analyze_scenario("bursty", bursty_trace, [1],
                                  config=config)
        trace = bursty_trace(1)
        seeded = replace(config, seed=1)

        def flexfetch_energy(loss_rate):
            factory = FlexFetchFactory(profile_from_trace(trace),
                                       loss_rate, config.stage_length)
            return run_point(ProgramSet((ProgramSpec(trace),)), factory,
                             seeded.wnic_spec, seeded).energy

        want = flexfetch_energy(config.loss_rate)
        # The default budget picks differently on this trace, so the
        # check below cannot pass with default tunables.
        assert want != flexfetch_energy(ExperimentConfig().loss_rate)
        assert report.stat("FlexFetch").energies == (want,)
