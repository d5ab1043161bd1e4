"""Unit tests for the wireless NIC model."""

import pytest

from repro.devices.specs import AIRONET_350
from repro.devices.wnic import Direction, WirelessNic, WnicMode
from repro.faults.schedule import FaultSchedule, FaultSpec, RateWindow
from repro.sim.clock import KB


class TestInitialState:
    def test_starts_psm_by_default(self):
        assert WirelessNic().state == WnicMode.PSM.value

    def test_can_start_cam(self):
        assert WirelessNic(initially_psm=False).state == WnicMode.CAM.value


class TestDpm:
    def test_dozes_after_cam_timeout(self):
        nic = WirelessNic(initially_psm=False)
        nic.advance_to(0.7)
        assert nic.state == WnicMode.CAM.value
        nic.advance_to(0.9)
        assert nic.state == WnicMode.PSM.value
        assert nic.doze_count == 1

    def test_doze_energy_accounting(self):
        nic = WirelessNic(initially_psm=False)
        nic.advance_to(10.0)
        # 0.8 s CAM idle + doze impulse (covering its 0.41 s window)
        # + PSM from 1.21 s on.
        expected = 0.8 * 1.41 + 0.53 + (10.0 - 1.21) * 0.39
        assert nic.energy(10.0) == pytest.approx(expected, rel=1e-6)

    def test_activity_defers_doze(self):
        nic = WirelessNic(initially_psm=False)
        nic.note_activity(0.5)
        nic.advance_to(1.2)
        assert nic.state == WnicMode.CAM.value
        nic.advance_to(1.4)
        assert nic.state == WnicMode.PSM.value


class TestService:
    def test_wakeup_on_demand(self):
        nic = WirelessNic()
        r = nic.service(0.0, 64 * KB)
        assert r.woke_up
        assert r.start == pytest.approx(0.40)
        assert r.first_byte == pytest.approx(0.40 + 1e-3)
        transfer = 64 * KB / AIRONET_350.bandwidth_bps
        assert r.completion == pytest.approx(0.401 + transfer)
        expected = (0.51                      # wake impulse
                    + 1e-3 * 1.41             # latency at CAM idle
                    + transfer * 2.61)        # recv
        assert r.energy == pytest.approx(expected, rel=1e-6)

    def test_send_uses_send_power(self):
        recv = WirelessNic(initially_psm=False).service(
            0.0, 1_000_000, direction=Direction.RECV)
        send = WirelessNic(initially_psm=False).service(
            0.0, 1_000_000, direction=Direction.SEND)
        assert send.energy > recv.energy
        ratio = (send.energy - 1e-3 * 1.41) / (recv.energy - 1e-3 * 1.41)
        assert ratio == pytest.approx(3.69 / 2.61, rel=1e-3)

    def test_warm_service_skips_wakeup(self):
        nic = WirelessNic(initially_psm=False)
        r = nic.service(0.2, 4096)
        assert not r.woke_up
        assert r.start == pytest.approx(0.2)

    def test_requests_queue(self):
        nic = WirelessNic(initially_psm=False)
        r1 = nic.service(0.0, 10_000_000)
        r2 = nic.service(0.0, 10_000_000)
        assert r2.start >= r1.completion

    def test_stays_cam_after_service(self):
        nic = WirelessNic()
        r = nic.service(0.0, 4096)
        assert nic.state == WnicMode.CAM.value
        nic.advance_to(r.completion + 0.9)
        assert nic.state == WnicMode.PSM.value

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WirelessNic().service(0.0, -5)

    def test_latency_sweep_scales_service(self):
        lo = WirelessNic(AIRONET_350.with_link(latency=0.0),
                         initially_psm=False).service(0.0, 4096)
        hi = WirelessNic(AIRONET_350.with_link(latency=20e-3),
                         initially_psm=False).service(0.0, 4096)
        assert hi.completion - lo.completion == pytest.approx(20e-3)

    def test_bandwidth_sweep_scales_transfer(self):
        fast = WirelessNic(AIRONET_350,
                           initially_psm=False).service(0.0, 1_375_000)
        slow_spec = AIRONET_350.with_link(bandwidth_bps=1e6 / 8)
        slow = WirelessNic(slow_spec,
                           initially_psm=False).service(0.0, 1_375_000)
        assert fast.completion - fast.first_byte == pytest.approx(1.0)
        assert slow.completion - slow.first_byte == pytest.approx(11.0)


class TestFaultedService:
    """CAM transfers under an injected fault schedule: every expected
    value is derived from the spec, not pinned."""

    SIZE = 64 * KB
    FALLBACK_BPS = AIRONET_350.bandwidth_bps / 4

    def _faulted_nic(self, **timeline):
        nic = WirelessNic(initially_psm=False)
        nic.set_fault_schedule(FaultSchedule(FaultSpec(), **timeline))
        return nic

    def test_rate_fallback_stretches_the_transfer(self):
        nic = self._faulted_nic(
            rate_windows=[RateWindow(0.0, 100.0, self.FALLBACK_BPS)])
        r = nic.service(0.0, self.SIZE)
        spec = AIRONET_350
        transfer = self.SIZE / self.FALLBACK_BPS
        assert r.first_byte == pytest.approx(spec.latency)
        assert r.completion == pytest.approx(r.first_byte + transfer)
        assert not r.failed
        buckets = nic.meter.breakdown()
        assert buckets["wnic.cam"] == pytest.approx(
            spec.cam_idle_power * spec.latency)
        assert buckets["wnic.recv"] == pytest.approx(
            spec.cam_recv_power * transfer)
        assert r.energy == pytest.approx(sum(buckets.values()))

    def test_outage_mid_transfer_aborts_and_burns_the_deadline(self):
        spec = AIRONET_350
        transfer = self.SIZE / self.FALLBACK_BPS
        cut = spec.latency + transfer / 2
        nic = self._faulted_nic(
            outages=[(cut, cut + 100.0)],
            rate_windows=[RateWindow(0.0, 100.0, self.FALLBACK_BPS)])
        r = nic.service(0.0, self.SIZE)
        timeout = FaultSpec().network_timeout
        assert r.failed
        assert r.completion == pytest.approx(cut + timeout)
        assert nic.aborted_transfer_count == 1
        buckets = nic.meter.breakdown()
        assert buckets["wnic.cam"] == pytest.approx(
            spec.cam_idle_power * spec.latency)
        assert buckets["wnic.recv-aborted"] == pytest.approx(
            spec.cam_recv_power * (cut - spec.latency))
        assert buckets["wnic.outage"] == pytest.approx(
            spec.cam_idle_power * timeout)
        assert "wnic.recv" not in buckets
        assert r.energy == pytest.approx(sum(buckets.values()))


class TestEstimate:
    def test_estimate_matches_service(self):
        nic = WirelessNic()
        t, e = nic.estimate_service(64 * KB)
        r = WirelessNic().service(0.0, 64 * KB)
        assert t == pytest.approx(r.completion)
        assert e == pytest.approx(r.energy, rel=1e-6)

    def test_estimate_does_not_mutate(self):
        nic = WirelessNic()
        nic.estimate_service(64 * KB)
        assert nic.state == WnicMode.PSM.value
        assert nic.wakeup_count == 0

    def test_estimate_from_cam(self):
        nic = WirelessNic()
        t_psm, e_psm = nic.estimate_service(4096)
        t_cam, e_cam = nic.estimate_service(
            4096, from_state=WnicMode.CAM.value)
        assert t_psm - t_cam == pytest.approx(0.40)
        assert e_psm > e_cam
