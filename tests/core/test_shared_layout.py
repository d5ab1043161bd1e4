"""One placed disk layout per program set and seed.

Placement depends only on the programs' file tables, in program order,
and the seed, so :func:`~repro.sim.plan.layout_for` places it once per
process and every replay of the set shares the one layout: the plan
walk, each live-kernel session, and through the layout the cost
model's packed profiles.  Sharing must not change a single bit.
"""

from __future__ import annotations

import json

import pytest

import repro.sim.plan as plan_mod
from benchmarks.e2e.child import EXPECTED_PATH, summarize
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Prepared,
    build_policies,
    compile_programs,
)
from repro.core.policies import DiskOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.workload import ProgramSpec
from repro.devices.layout import DiskLayout
from repro.experiments.config import ExperimentConfig
from repro.sim.clock import MB
from repro.sim.plan import build_plan, file_table, layout_for
from tests.conftest import make_trace


#: A profiled reader of inodes 1-3.
FG = make_trace([(1 + i % 3, (i // 3) * 65536, 65536, "read", i * 0.4)
                 for i in range(30)], name="fg", pid=100)
#: A background reader of inodes 4 and 1, sizing inode 1 differently.
BG = make_trace([(4 - i % 2 * 3, (i // 2) * 32768, 32768, "read",
                  i * 1.5) for i in range(12)], name="bg", pid=200)


def _programs() -> tuple[ProgramSpec, ProgramSpec]:
    return (ProgramSpec(FG).prepared(),
            ProgramSpec(BG, profiled=False, disk_pinned=True).prepared())


def _session(specs, seed=3, policy=None) -> SimulationSession:
    return SimulationSession(list(specs), policy or DiskOnlyPolicy(),
                             memory_bytes=MB, seed=seed)


class TestSharedLayout:
    def test_live_sessions_share_one_layout_bit_for_bit(self, monkeypatch):
        specs = _programs()
        first, second = _session(specs), _session(specs)
        a, b = first.run(), second.run()
        assert not first.used_fast_path
        assert first.env.layout is second.env.layout
        assert a == b
        # A freshly placed layout (empty memo) gives the same run.
        monkeypatch.setattr(plan_mod, "_LAYOUT_MEMO", {})
        fresh = _session(specs)
        assert fresh.run() == a
        assert fresh.env.layout is not first.env.layout
        # ... and the same placement as the union of the file tables.
        placed = DiskLayout(3, file_table(spec.compiled for spec in specs))
        assert dict(placed.files) == dict(first.env.layout.files)

    def test_plan_and_live_kernel_share_the_layout(self):
        (spec, _) = _programs()
        plan = build_plan(spec.compiled, MB, 3)
        live = _session([spec]).with_fast_path(False)
        live.run()
        assert plan.layout is live.env.layout
        assert plan.layout is layout_for([spec.compiled], 3)

    def test_live_flexfetch_cells_share_the_packed_profile(self):
        specs = _programs()
        profile = profile_from_trace(FG)
        sessions = [_session(specs, policy=FlexFetchPolicy(profile))
                    for _ in range(2)]
        for session in sessions:
            session.run()
        # Packs are kept per live layout; both sessions are alive.
        assert len(profile.columns.packed) == 1

    def test_seed_and_program_order_key_the_layout(self):
        fg, bg = (spec.compiled for spec in _programs())
        shared = layout_for([fg, bg], 3)
        assert layout_for([fg, bg], 3) is shared
        reseeded = layout_for([fg, bg], 4)
        reordered = layout_for([bg, fg], 3)
        assert reseeded is not shared and reordered is not shared
        assert dict(reseeded.files) != dict(shared.files)
        assert list(reordered.files) != list(shared.files)


@pytest.mark.parametrize("policy", ["FlexFetch", "WNIC-only"])
def test_two_program_cell_matches_its_pinned_result(policy):
    """A Figure 4 cell (grep+make beside disk-pinned xmms, live kernel)
    reproduces the benchmark's pinned result at seed 7 exactly."""
    workload = WORKLOADS["concurrent-pinned"]
    traces = workload.synth(7)
    programs = compile_programs(traces)
    prep = Prepared(workload, 7, programs,
                    build_policies(workload, traces[0][0],
                                   ExperimentConfig(seed=7)))
    cell = next(c for c in prep.cells
                if c.policy == policy and c.link == "1ms@11Mbps")
    got = summarize(prep.run(cell).result)
    want = json.loads(EXPECTED_PATH.read_text())["7"][workload.name][
        cell.key]
    assert got == want
