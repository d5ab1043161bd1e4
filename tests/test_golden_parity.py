"""Golden parity: the layered session reproduces pre-refactor results.

``benchmarks/results/golden.json`` pins the :class:`RunResult` numbers
produced by the original monolithic simulator *before* the layered
decomposition (workload/kernel/device/routing/telemetry behind
:class:`~repro.core.session.SimulationSession`).  The refactor was
required to be behaviour-preserving — same seeds, same results — so a
fresh session must land on the pinned numbers within ``approx_eq``.

Regenerate the pins (only after an *intentional* behaviour change)::

    PYTHONPATH=src python benchmarks/pin_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.flexfetch import FlexFetchPolicy
from repro.core.oracle import ClairvoyantStagePolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import standard_policies
from repro.experiments.runner import run_point
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)
from repro.units import approx_eq

GOLDEN_PATH = (Path(__file__).parent.parent / "benchmarks" / "results"
               / "golden.json")

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def figure_setups(config):
    """fig id -> (programs factory, policy factories), as pinned."""
    seed = config.seed
    fig1 = generate_grep_make(seed)
    fig2 = generate_mplayer(seed)
    fig3 = generate_thunderbird(seed)
    fg4, bg4 = generate_grep_make_xmms(seed)
    search5 = generate_acroread_search_run(seed)
    stale5 = profile_from_trace(generate_acroread_profile_run(seed))
    return {
        "fig1": (lambda: [ProgramSpec(fig1)],
                 standard_policies(profile_from_trace(fig1), config)),
        "fig2": (lambda: [ProgramSpec(fig2)],
                 standard_policies(profile_from_trace(fig2), config)),
        "fig3": (lambda: [ProgramSpec(fig3)],
                 standard_policies(profile_from_trace(fig3), config)),
        "fig4": (lambda: [ProgramSpec(fg4),
                          ProgramSpec(bg4, profiled=False,
                                      disk_pinned=True)],
                 standard_policies(profile_from_trace(fg4), config,
                                   include_static=True)),
        "fig5": (lambda: [ProgramSpec(search5)],
                 standard_policies(stale5, config,
                                   include_static=True)),
    }


def test_golden_file_is_pinned(golden):
    assert set(golden["points"]) == set(FIGURE_IDS)
    assert golden["oracle"]


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_points_match_golden(fig_id, golden, config, figure_setups):
    """Every figure's default-link replay lands on the pinned numbers."""
    programs, policies = figure_setups[fig_id]
    pinned = golden["points"][fig_id]
    assert set(policies) == set(pinned)
    for name, factory in policies.items():
        result = run_point(programs, factory, config.wnic_spec,
                           config).result
        want = pinned[name]
        assert approx_eq(result.total_energy, want["energy"]), \
            f"{fig_id}/{name} energy {result.total_energy} != {want['energy']}"
        assert approx_eq(result.disk_energy, want["disk_energy"])
        assert approx_eq(result.wnic_energy, want["wnic_energy"])
        assert approx_eq(result.end_time, want["time"])


@pytest.mark.parametrize("workload,gen", [
    ("grep+make", generate_grep_make),
    ("mplayer", generate_mplayer),
    ("thunderbird", generate_thunderbird),
])
def test_oracle_matches_golden(workload, gen, golden):
    """Clairvoyant-headroom energies land on the pinned numbers."""
    seed = golden["oracle_seed"]
    trace = gen(seed)
    runs = {
        "Disk-only": DiskOnlyPolicy(),
        "WNIC-only": WnicOnlyPolicy(),
        "FlexFetch": FlexFetchPolicy(profile_from_trace(trace)),
        "Clairvoyant": ClairvoyantStagePolicy(trace),
    }
    pinned = golden["oracle"][workload]
    assert set(runs) == set(pinned)
    for label, policy in runs.items():
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=seed).run()
        assert approx_eq(result.total_energy, pinned[label]), \
            f"{workload}/{label}: {result.total_energy} != {pinned[label]}"
