"""Unit tests for PSM-mode data transfers (§1.1 characteristic 1)."""

import math

import pytest

from repro.devices.specs import AIRONET_350
from repro.devices.wnic import Direction, WirelessNic, WnicMode
from repro.faults.schedule import FaultSchedule, RateWindow

PSM_SPEC = AIRONET_350.with_psm_transfers()


class TestEligibility:
    def test_disabled_by_default(self):
        nic = WirelessNic(AIRONET_350)
        r = nic.service(0.0, 4096)
        assert r.woke_up                    # default model wakes to CAM

    def test_small_request_stays_in_psm(self):
        nic = WirelessNic(PSM_SPEC)
        r = nic.service(0.0, 4096)
        assert not r.woke_up
        assert nic.state == WnicMode.PSM.value
        assert nic.wakeup_count == 0

    def test_large_request_still_wakes(self):
        nic = WirelessNic(PSM_SPEC)
        r = nic.service(0.0, 1_000_000)
        assert r.woke_up
        assert nic.state == WnicMode.CAM.value

    def test_cam_card_ignores_fast_path(self):
        nic = WirelessNic(PSM_SPEC, initially_psm=False)
        r = nic.service(0.0, 4096)
        assert r.first_byte == pytest.approx(0.0 + 1e-3)   # no beacon


class TestPsmUnderFaults:
    def test_rate_cap_a_rounding_error_below_nominal_keeps_psm(self):
        """A rate window that caps the link a rounding error below the
        spec's bandwidth leaves the link at its rate: a PSM-sized
        request still takes the PSM path instead of the fault path's
        wake-up."""
        capped = math.nextafter(PSM_SPEC.bandwidth_bps, 0.0)
        nic = WirelessNic(PSM_SPEC)
        nic.set_fault_schedule(FaultSchedule(
            outages=(), rate_windows=[RateWindow(0.0, 100.0, capped)],
            spinup_failures=()))
        r = nic.service(0.05, 4096)
        assert not r.woke_up
        breakdown = nic.meter.breakdown()
        assert "wnic.wakeup" not in breakdown
        assert breakdown["wnic.psm-recv"] > 0.0
        assert nic.state == WnicMode.PSM.value


class TestPsmTransferModel:
    def test_beacon_wait_before_first_byte(self):
        nic = WirelessNic(PSM_SPEC)
        r = nic.service(0.05, 4096)
        # next beacon at 0.1 s, plus link latency.
        assert r.first_byte == pytest.approx(0.1 + 1e-3)

    def test_derated_bandwidth(self):
        nic = WirelessNic(PSM_SPEC)
        r = nic.service(0.0, 8192)
        transfer = r.completion - r.first_byte
        expected = 8192 / (PSM_SPEC.bandwidth_bps * 0.5)
        assert transfer == pytest.approx(expected)

    def test_energy_uses_psm_powers(self):
        nic = WirelessNic(PSM_SPEC)
        r = nic.service(0.0, 8192)
        transfer = r.completion - r.first_byte
        wait = r.first_byte - r.arrival
        expected = wait * 0.39 + transfer * 1.42
        assert r.energy == pytest.approx(expected, rel=1e-6)

    def test_small_transfer_cheaper_than_cam_wakeup(self):
        """The whole point: a tiny fetch shouldn't pay the 1 J mode
        round-trip."""
        psm = WirelessNic(PSM_SPEC).service(0.0, 4096)
        cam = WirelessNic(AIRONET_350).service(0.0, 4096)
        assert psm.energy < cam.energy

    def test_send_direction_power(self):
        recv = WirelessNic(PSM_SPEC).service(0.0, 8192,
                                             direction=Direction.RECV)
        send = WirelessNic(PSM_SPEC).service(0.0, 8192,
                                             direction=Direction.SEND)
        assert send.energy > recv.energy


class TestEstimateParity:
    def test_estimate_uses_fast_path(self):
        nic = WirelessNic(PSM_SPEC)
        t, e = nic.estimate_service(4096)
        # expected half-beacon wait, no mode-switch cost
        assert t < PSM_SPEC.psm_to_cam_time + 0.2
        assert e < PSM_SPEC.psm_to_cam_energy

    def test_estimate_large_request_unchanged(self):
        a = WirelessNic(PSM_SPEC).estimate_service(1_000_000)
        b = WirelessNic(AIRONET_350).estimate_service(1_000_000)
        assert a == b


class TestSpecValidation:
    def test_with_psm_transfers(self):
        assert PSM_SPEC.psm_transfer_enabled
        assert not PSM_SPEC.with_psm_transfers(False).psm_transfer_enabled

    def test_bad_factor_rejected(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(AIRONET_350, psm_bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(AIRONET_350, psm_bandwidth_factor=1.5)

    def test_bad_beacon_rejected(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(AIRONET_350, beacon_interval=0.0)
