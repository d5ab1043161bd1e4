"""Unit tests for repro.sim.clock."""

import pytest

from repro import units
from repro.sim import clock


class TestUnits:
    def test_kb_mb_gb_are_binary(self):
        assert clock.KB == 1024
        assert clock.MB == 1024 ** 2
        assert clock.GB == 1024 ** 3

    def test_mbps_is_decimal_megabits(self):
        # 11 Mbps -> 1.375 MB/s, the Aironet figure that matters.
        assert clock.Mbps(11) == pytest.approx(1_375_000.0)

    def test_mbps_zero(self):
        assert clock.Mbps(0) == 0.0

    def test_mbps_negative_rejected(self):
        with pytest.raises(ValueError):
            clock.Mbps(-1)

    def test_mbps_vs_mbytes_gap(self):
        # The disk/WNIC bandwidth gap the paper leans on is ~25x.
        assert clock.MBps(35) / clock.Mbps(11) == pytest.approx(
            35e6 / 1.375e6)

    def test_mbytes_negative_rejected(self):
        with pytest.raises(ValueError):
            clock.MBps(-0.5)


class TestBytesPerSecond:
    def test_requires_exactly_one_unit(self):
        with pytest.raises(ValueError):
            clock.bytes_per_second()
        with pytest.raises(ValueError):
            clock.bytes_per_second(megabits=1, megabytes=1)

    def test_megabit_path(self):
        assert clock.bytes_per_second(megabits=8) == pytest.approx(1e6)

    def test_megabyte_path(self):
        assert clock.bytes_per_second(megabytes=2) == pytest.approx(2e6)


class TestSecondsToTransfer:
    """Transfer time lives in repro.units; the clock units feed it."""

    def test_basic(self):
        assert units.transfer_seconds(1_375_000, clock.Mbps(11)) == \
            pytest.approx(1.0)

    def test_zero_bytes_is_free(self):
        assert units.transfer_seconds(0, 1.0) == 0.0
        # even with nonsense bandwidth
        assert units.transfer_seconds(0, -5.0) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_seconds(-1, 100.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_seconds(10, 0.0)
