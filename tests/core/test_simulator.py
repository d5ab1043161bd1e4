"""Integration tests for the trace-driven replay simulator."""

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.workload import ProgramSpec
from repro.devices.disk import DiskState
from repro.devices.layout import DiskLayout
from repro.devices.specs import AIRONET_350
from repro.sim.clock import MB
from repro.sim.plan import layout_for
from repro.traces.compile import compile_trace
from tests.conftest import make_trace
from tests.devices.test_layout import placement, scalar_placement


class TestClosedLoop:
    def test_think_times_preserved(self, sparse_trace):
        """Completion-to-issue gaps must match the recorded thinks."""
        result = SimulationSession([ProgramSpec(sparse_trace)],
                                   DiskOnlyPolicy(), seed=1).run()
        # 6 requests, 30 s gaps: run must span at least 5 * 30 s.
        assert result.end_time >= 150.0
        assert result.end_time < 170.0       # ...but not balloon

    def test_slow_device_stretches_run(self, bursty_trace):
        disk = SimulationSession([ProgramSpec(bursty_trace)],
                                 DiskOnlyPolicy(), seed=1).run()
        slow_wnic = AIRONET_350.with_link(bandwidth_bps=1e6 / 8)
        wnic = SimulationSession([ProgramSpec(bursty_trace)],
                                 WnicOnlyPolicy(), wnic_spec=slow_wnic,
                                 seed=1).run()
        # 8 MB at 1 Mbps takes over a minute; the disk does it in ~2 s.
        assert wnic.end_time > disk.end_time + 50.0

    def test_empty_program_rejected(self):
        # The session materialises lazily, so the error comes at run().
        session = SimulationSession([], DiskOnlyPolicy())
        with pytest.raises(ValueError):
            session.run()


class TestEnergyAccounting:
    def test_disk_only_energy_decomposition(self, sparse_trace):
        result = SimulationSession([ProgramSpec(sparse_trace)],
                                   DiskOnlyPolicy(), seed=1).run()
        assert result.total_energy == pytest.approx(
            result.disk_energy + result.wnic_energy)
        # 30 s gaps > 20 s timeout: the disk spin-cycles on every
        # device-touching request (readahead absorbs some of the six).
        assert 3 <= result.disk_spinups <= 6
        assert result.disk_spindowns >= result.disk_spinups - 1
        # WNIC idles in PSM throughout.
        assert result.wnic_energy == pytest.approx(
            0.39 * result.end_time, rel=0.05)

    def test_wnic_only_leaves_disk_in_standby(self, sparse_trace):
        result = SimulationSession([ProgramSpec(sparse_trace)],
                                   WnicOnlyPolicy(), seed=1).run()
        assert result.disk_spinups == 0
        assert result.disk_energy == pytest.approx(
            0.15 * result.end_time, rel=0.05)
        # one wake per device-touching read (readahead absorbs some)
        assert 3 <= result.wnic_wakeups <= 6

    def test_breakdowns_sum_to_totals(self, bursty_trace):
        result = SimulationSession([ProgramSpec(bursty_trace)],
                                   DiskOnlyPolicy(), seed=1).run()
        assert sum(result.disk_breakdown.values()) == pytest.approx(
            result.disk_energy, rel=1e-6)
        assert sum(result.wnic_breakdown.values()) == pytest.approx(
            result.wnic_energy, rel=1e-6)

    def test_residencies_cover_run(self, bursty_trace):
        result = SimulationSession([ProgramSpec(bursty_trace)],
                                   DiskOnlyPolicy(), seed=1).run()
        assert sum(result.disk_residency.values()) == pytest.approx(
            result.end_time, rel=1e-6)


class TestCacheInteraction:
    def test_rereads_hit_cache(self):
        calls = [(1, 0, 1 * MB, "read", 0.0),
                 (1, 0, 1 * MB, "read", 5.0)]
        trace = make_trace(calls)
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1, memory_bytes=8 * MB).run()
        assert result.cache_hit_ratio > 0.4
        # Device moved roughly one copy of the data, not two.
        assert result.device_bytes["disk"] < 1.5 * MB

    def test_fully_cached_syscall_completes_instantly(self):
        calls = [(1, 0, 4096, "read", 0.0), (1, 0, 4096, "read", 1.0)]
        trace = make_trace(calls)
        sim = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                seed=1)
        result = sim.run()
        # Second read is a pure cache hit: completion == issue time.
        assert result.end_time == pytest.approx(
            1.0 + sim.programs[0].thinks[0] * 0, abs=2.5)


class TestWritePath:
    def test_writes_are_async(self):
        calls = [(1, i * 4096, 4096, "write", i * 0.001)
                 for i in range(100)]
        trace = make_trace(calls)
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1).run()
        # Program never waits for the disk: the run ends with the last
        # write's issue (plus nothing), not after device flushing.
        assert result.foreground_time < 1.0

    def test_writeback_reaches_device_eventually(self):
        calls = [(1, 0, 64 * 1024, "write", 0.0),
                 (1, 0, 4096, "read", 40.0)]   # later activity
        trace = make_trace(calls, file_sizes={1: 64 * 1024})
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1).run()
        assert result.device_bytes["disk"] >= 64 * 1024


class TestMultiProgram:
    def test_background_keeps_disk_up(self):
        fg = make_trace([(1, i * 65536, 65536, "read", i * 30.0)
                         for i in range(4)], name="fg",
                        file_sizes={1: 4 * 65536})
        bg = make_trace([(2, i * 65536, 65536, "read", i * 5.0)
                         for i in range(30)], name="bg",
                        file_sizes={2: 30 * 65536})
        result = SimulationSession(
            [ProgramSpec(fg),
             ProgramSpec(bg, profiled=False, disk_pinned=True)],
            DiskOnlyPolicy(), seed=1).run()
        # bg's 5 s cadence stops the 20 s timeout from ever firing
        # while it plays.
        assert result.disk_spinups == 1
        assert result.disk_spindowns <= 1

    def test_disk_pinned_program_never_uses_network(self):
        bg = make_trace([(2, i * 4096, 4096, "read", i * 1.0)
                         for i in range(10)], name="bg",
                        file_sizes={2: 10 * 4096})
        result = SimulationSession(
            [ProgramSpec(bg, profiled=False, disk_pinned=True)],
            WnicOnlyPolicy(), seed=1).run()
        assert result.device_bytes["network"] == 0
        assert result.device_bytes["disk"] > 0


class TestDeterminism:
    def test_same_seed_same_result(self, bursty_trace):
        def run():
            return SimulationSession([ProgramSpec(bursty_trace)],
                                     DiskOnlyPolicy(), seed=9).run()
        a, b = run(), run()
        assert a.total_energy == b.total_energy
        assert a.end_time == b.end_time
        assert a.disk_breakdown == b.disk_breakdown


class TestMobileSystem:
    def test_layout_for_populates_layout_and_vfs(self, tiny_trace):
        env = MobileSystem(layout=layout_for([compile_trace(tiny_trace)],
                                             0))
        assert 1 in env.layout
        # The layout is the kernel path's file table.
        assert env.kernel.layout.get(1).nblocks >= 3

    def test_programs_sharing_an_inode_place_it_once(self):
        """Two programs size a shared file differently (strace sizes it
        by its furthest touched byte): the union of their tables is
        placed once, in first-appearance order, at the largest size."""
        a = make_trace([(1, 0, 8192, "read", 0.0),
                        (2, 0, 4096, "read", 1.0)], pid=100)
        b = make_trace([(3, 0, 4096, "read", 0.5),
                        (1, 0, 65536, "read", 2.0)], pid=200)
        env = MobileSystem(layout=layout_for(
            [compile_trace(a), compile_trace(b)], 0))
        assert list(env.layout.files) == [1, 2, 3]
        assert env.layout.get(1).nblocks == 16
        assert env.kernel.layout is env.layout
        result = SimulationSession([ProgramSpec(a), ProgramSpec(b)],
                                   DiskOnlyPolicy(), seed=1).run()
        assert result.end_time > 2.0

    def test_disjoint_tables_place_as_one_trace_at_a_time(self):
        a = make_trace([(inode, 0, inode * 4096, "read", float(inode))
                        for inode in (1, 4, 9)], pid=100)
        b = make_trace([(inode, 0, 3 * 4096, "read", float(inode))
                        for inode in (2, 3, 7)], pid=200)
        together = layout_for([compile_trace(a), compile_trace(b)], 7)
        apart = scalar_placement(7, [(inode, inode * 4096)
                                     for inode in (1, 4, 9)]
                                 + [(inode, 3 * 4096)
                                    for inode in (2, 3, 7)])
        assert placement(together) == apart
        assert list(together.files) == [1, 4, 9, 2, 3, 7]

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_appends_within_the_declared_size_flush(self, fast_path):
        """40 one-second 4 KB appends to a file sized to hold them: the
        laptop-mode flushes reach the disk on both kernel surfaces."""
        trace = make_trace([(1, i * 4096, 4096, "write", float(i))
                            for i in range(40)])
        session = SimulationSession([ProgramSpec(trace)],
                                    DiskOnlyPolicy(), seed=1)
        result = session.with_fast_path(fast_path).run()
        assert session.used_fast_path is fast_path
        assert result.device_bytes["disk"] == 40 * 4096

    def test_needs_a_layout_or_a_plan(self):
        with pytest.raises(ValueError, match="layout or a burst plan"):
            MobileSystem()

    def test_disk_active_flag(self):
        env = MobileSystem(layout=DiskLayout(0, {}))
        assert env.disk.state == DiskState.STANDBY.value
        env.disk.force_spinup(0.0)
        assert env.disk.state != DiskState.STANDBY.value
