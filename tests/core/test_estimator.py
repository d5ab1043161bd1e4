"""Unit tests for per-stage what-if estimation (§2.2)."""

import pytest

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.costmodel import CostModel, replay_stage
from repro.core.decision import DataSource
from repro.core.profile import ExecutionProfile
from repro.devices.disk import DiskState, HardDisk
from repro.devices.wnic import WirelessNic
from repro.sim.clock import MB
from repro.traces.record import OpType


def burst(nbytes, start=0.0, dur=0.1, inode=1, offset=0):
    req = ProfiledRequest(inode=inode, offset=offset, size=nbytes,
                          op=OpType.READ)
    return IOBurst(requests=(req,), start=start, end=start + dur)


class TestBasicEstimates:
    def test_disk_estimate_includes_spinup_and_idle(self):
        disk = HardDisk()   # standby
        est = replay_stage(DataSource.DISK, disk,
                           [burst(1 * MB), burst(1 * MB)], [10.0, 0.0],
                           now=0.0)
        # spin-up + two transfers + 10 s idle between bursts.
        assert est.energy > 5.0 + 10.0 * 1.6
        assert est.time > 10.0 + 1.6
        assert est.nbytes == 2 * MB
        assert est.requests == 2

    def test_network_estimate_includes_doze_cycles(self):
        wnic = WirelessNic()   # psm
        est = replay_stage(DataSource.NETWORK, wnic,
                           [burst(64 * 1024), burst(64 * 1024)],
                           [10.0, 0.0], now=0.0)
        # two wake-ups, two transfers, PSM idle between.
        assert est.energy > 2 * 0.51
        assert est.energy < 10.0      # far cheaper than the disk here

    def test_estimation_does_not_mutate_device(self):
        disk = HardDisk()
        replay_stage(DataSource.DISK, disk, [burst(1 * MB)], [0.0],
                     now=0.0)
        assert disk.state == DiskState.STANDBY.value
        assert disk.energy(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replay_stage(DataSource.DISK, HardDisk(), [burst(1)], [],
                         now=0.0)

    def test_empty_stage(self):
        est = replay_stage(DataSource.DISK, HardDisk(), [], [], now=0.0)
        assert est.energy == 0.0
        assert est.time == 0.0

    def test_starts_from_live_state(self):
        cold = HardDisk()
        warm = HardDisk(initially_standby=False)
        e_cold = replay_stage(DataSource.DISK, cold, [burst(4096)],
                              [0.0], now=0.0).energy
        e_warm = replay_stage(DataSource.DISK, warm, [burst(4096)],
                              [0.0], now=0.0).energy
        assert e_cold > e_warm + 4.9    # spin-up difference


class TestDpmInsideThinks:
    def test_long_think_spins_clone_down(self):
        disk = HardDisk(initially_standby=False)
        est = replay_stage(DataSource.DISK, disk,
                           [burst(4096), burst(4096)], [60.0, 0.0],
                           now=0.0)
        # 20 s idle + spin-down + standby + spin-up again: cheaper than
        # idling the whole 60 s.
        assert est.energy < 60.0 * 1.6
        assert est.energy > 20.0 * 1.6


class TestCrossBaseline:
    def test_other_device_baseline_added(self):
        disk = HardDisk()
        wnic = WirelessNic()
        alone = replay_stage(DataSource.DISK, disk, [burst(1 * MB)],
                             [30.0, ][:1], now=0.0)
        with_other = replay_stage(DataSource.DISK, disk, [burst(1 * MB)],
                                  [0.0], now=0.0, other_device=wnic)
        assert with_other.energy > alone.energy

    def test_estimate_both_is_symmetric(self):
        disk, wnic = HardDisk(), WirelessNic()
        d, n = CostModel(disk, wnic).stage_pair(
            ExecutionProfile([burst(1 * MB)], [0.0]), 0, 1, now=0.0)
        assert d.source is DataSource.DISK
        assert n.source is DataSource.NETWORK
        assert d.energy > 0 and n.energy > 0


class TestMinDuration:
    def test_tail_idle_charged(self):
        wnic = WirelessNic()
        short = replay_stage(DataSource.NETWORK, wnic, [burst(4096)],
                             [0.0], now=0.0)
        padded = replay_stage(DataSource.NETWORK, wnic, [burst(4096)],
                              [0.0], now=0.0, min_duration=40.0)
        assert padded.time == pytest.approx(40.0)
        # tail: 0.8 s CAM idle, one doze, then PSM for the rest.
        assert padded.energy > short.energy
        tail_bound = 0.8 * 1.41 + 0.53 + 40.0 * 0.39 + 0.1
        assert padded.energy < short.energy + tail_bound


class TestCacheFilter:
    """The §2.3.2 filter, observed through the estimate it feeds."""

    class FakeVfs:
        """Residency oracle: everything in inode 1 is cached."""

        def resident_bytes(self, inode, offset, size):
            return size if inode == 1 else 0

        def resident_inodes(self):
            return {1}

    @staticmethod
    def filtered(bursts, vfs):
        return replay_stage(DataSource.DISK, HardDisk(), bursts,
                            [0.0] * len(bursts), now=0.0, vfs=vfs)

    def test_fully_cached_requests_dropped(self):
        est = self.filtered([burst(1 * MB, inode=1), burst(4096, inode=2)],
                            self.FakeVfs())
        assert (est.nbytes, est.requests) == (4096, 1)

    def test_uncached_requests_kept(self):
        est = self.filtered([burst(1 * MB, inode=2)], self.FakeVfs())
        assert (est.nbytes, est.requests) == (1 * MB, 1)

    def test_partial_residency_shrinks(self):
        class HalfVfs:
            def resident_bytes(self, inode, offset, size):
                return size // 2

            def resident_inodes(self):
                return {1}
        est = self.filtered([burst(1 * MB)], HalfVfs())
        assert (est.nbytes, est.requests) == (MB // 2, 1)

    def test_writes_never_filtered(self):
        req = ProfiledRequest(inode=1, offset=0, size=100, op=OpType.WRITE)
        b = IOBurst(requests=(req,), start=0.0, end=0.1)
        est = self.filtered([b], self.FakeVfs())
        assert (est.nbytes, est.requests) == (100, 1)

    def test_filter_feeds_estimate(self):
        disk = HardDisk()
        est = replay_stage(DataSource.DISK, disk,
                           [burst(1 * MB, inode=1)], [0.0], now=0.0,
                           vfs=self.FakeVfs())
        assert est.nbytes == 0
        assert est.requests == 0
        assert est.energy == pytest.approx(0.0, abs=1e-9)
