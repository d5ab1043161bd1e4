"""Unit tests for the hard-disk model."""

import pytest

from repro.devices.disk import DiskState, HardDisk
from repro.devices.specs import HITACHI_DK23DA
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.sim.clock import MB


class TestInitialState:
    def test_starts_standby_by_default(self):
        assert HardDisk().state == DiskState.STANDBY.value

    def test_can_start_spinning(self):
        disk = HardDisk(initially_standby=False)
        assert disk.state == DiskState.IDLE.value


class TestDpm:
    def test_spins_down_after_timeout(self):
        disk = HardDisk(initially_standby=False)
        disk.advance_to(19.9)
        assert disk.state == DiskState.IDLE.value
        disk.advance_to(20.1)
        assert disk.state == DiskState.STANDBY.value
        assert disk.spindown_count == 1

    def test_spindown_happens_at_exact_deadline(self):
        disk = HardDisk(initially_standby=False)
        disk.advance_to(100.0)
        # Energy: 20 s idle + spin-down impulse (covering its 2.3 s
        # window) + standby from 22.3 s on.
        expected = 20.0 * 1.6 + 2.94 + (100.0 - 22.3) * 0.15
        assert disk.energy(100.0) == pytest.approx(expected, rel=1e-6)

    def test_activity_resets_timeout(self):
        disk = HardDisk(initially_standby=False)
        disk.advance_to(15.0)
        disk.note_activity(15.0)
        disk.advance_to(30.0)
        assert disk.state == DiskState.IDLE.value   # 15 s since activity
        disk.advance_to(40.0)
        assert disk.state == DiskState.STANDBY.value

    def test_spindown_deadline(self):
        disk = HardDisk(initially_standby=False)
        assert disk.spindown_deadline() == pytest.approx(20.0)
        disk.service(5.0, 4096)
        deadline = disk.spindown_deadline()
        assert deadline is not None and deadline > 25.0
        disk.advance_to(deadline + 1)
        assert disk.spindown_deadline() is None     # standby now


class TestService:
    def test_spinup_on_demand(self):
        disk = HardDisk()
        r = disk.service(0.0, 1 * MB)
        assert r.spun_up
        assert r.start == pytest.approx(1.6)        # spin-up time
        assert r.first_byte == pytest.approx(1.6 + 0.020)
        assert r.completion == pytest.approx(
            1.6 + 0.020 + 1 * MB / 35e6)
        # spin-up energy + active power over positioning + transfer
        active = (r.completion - 1.6) * 2.0
        assert r.energy == pytest.approx(5.0 + active, rel=1e-6)

    def test_warm_service_skips_spinup(self):
        disk = HardDisk(initially_standby=False)
        r = disk.service(1.0, 4096)
        assert not r.spun_up
        assert r.start == pytest.approx(1.0)

    def test_back_to_back_requests_queue(self):
        disk = HardDisk(initially_standby=False)
        r1 = disk.service(0.0, 10 * MB)
        r2 = disk.service(0.0, 10 * MB)
        assert r2.start >= r1.completion

    def test_returns_to_idle_after_service(self):
        disk = HardDisk()
        disk.service(0.0, 4096)
        assert disk.state == DiskState.IDLE.value

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            HardDisk().service(0.0, -1)


class TestResidency:
    """The step accrues the free idle<->active switches inline; each
    request splits the time before it (idle) from its service
    (active)."""

    def test_requests_split_idle_from_active(self):
        disk = HardDisk(initially_standby=False)
        first = disk.service(5.0, 1 * MB)
        second = disk.service(first.completion + 2.0, 64 * 1024)
        end = second.completion + 3.0
        idle = 0.0 + (first.start - 0.0)
        active = 0.0 + (first.completion - first.start)
        idle += second.start - first.completion
        active += second.completion - second.start
        idle += end - second.completion
        assert disk.residency(end) == {"idle": idle, "active": active}

    def test_a_spin_up_is_standby_then_active(self):
        disk = HardDisk()
        result = disk.service(4.0, 1 * MB)
        end = result.completion + 1.0
        assert disk.residency(end) == {
            "standby": 4.0, "active": result.completion - 4.0,
            "idle": end - result.completion}


    def test_a_clone_accrues_from_its_own_clock(self):
        disk = HardDisk(initially_standby=False)
        disk.advance_to(10.0)
        clone = disk.clone()
        assert clone.residency(12.0) == {"idle": 2.0}
        # Switching to active before the clone's accrual began raises.
        with pytest.raises(ValueError):
            clone.service(5.0, 4096)


class TestSpinupRetry:
    """Demand spin-ups under injected failures: each failed attempt
    runs a full spin-up window, then backs off exponentially.  Expected
    values are derived from the specs, not pinned."""

    SPEC = FaultSpec(spinup_retries=2, spinup_backoff=0.25)

    def _disk(self, failures):
        disk = HardDisk()
        disk.set_fault_schedule(
            FaultSchedule(self.SPEC, spinup_failures=failures))
        return disk

    def test_retries_until_the_spinup_succeeds(self):
        disk = self._disk([True, True])
        r = disk.service(0.0, 4096)
        up = HITACHI_DK23DA.spinup_time
        backoff = self.SPEC.spinup_backoff
        # fail, back off b, fail, back off 2b, succeed.
        assert r.start == pytest.approx(3 * up + 3 * backoff)
        assert not r.failed and r.spun_up
        assert disk.spinup_failure_count == 2
        assert disk.spinup_count == 1
        assert disk.meter.breakdown()["disk.spinup-failed"] == \
            pytest.approx(2 * HITACHI_DK23DA.spinup_energy)

    def test_gives_up_after_the_retry_budget(self):
        disk = self._disk([True, True, True])
        r = disk.service(0.0, 4096)
        up = HITACHI_DK23DA.spinup_time
        backoff = self.SPEC.spinup_backoff
        assert r.failed
        assert r.completion == pytest.approx(3 * up + 3 * backoff)
        assert disk.spinup_failure_count == 3
        assert disk.spinup_count == 0
        assert r.energy == pytest.approx(
            3 * HITACHI_DK23DA.spinup_energy
            + 3 * backoff * HITACHI_DK23DA.standby_power, rel=1e-9)


class TestSpindownWaitCharge:
    """Which joules a request is charged: one that arrives during an
    in-flight spin-down (``waited_for_spindown``) is charged from its
    arrival, any other one from its start.  The spin-down's switching
    window draws nothing (its datasheet impulse was charged when it
    began), so the waited request pays spin-up plus transfer and not
    the spin-down; expected joules come from the spec."""

    SIZE = 65536

    def _transfer_joules(self):
        spec = HITACHI_DK23DA
        return spec.active_power * (spec.access_time
                                    + self.SIZE / spec.bandwidth_bps)

    def _spinning_down_at(self, arrival):
        spec = HITACHI_DK23DA
        disk = HardDisk(initially_standby=False)
        disk.advance_to(arrival)
        # The spin-down began at the timeout and is still in flight.
        done = spec.spindown_timeout + spec.spindown_time
        assert spec.spindown_timeout < arrival < done
        assert disk.state == DiskState.STANDBY.value
        assert disk.busy_until == pytest.approx(done)
        return disk, done

    def test_waited_request_is_charged_from_arrival(self):
        spec = HITACHI_DK23DA
        disk, done = self._spinning_down_at(21.0)
        at_arrival = disk.energy()
        r = disk.service(21.0, self.SIZE)
        assert r.waited_for_spindown and r.spun_up and not r.failed
        assert r.arrival == 21.0
        assert r.start == pytest.approx(done + spec.spinup_time)
        assert r.energy == disk.energy() - at_arrival
        assert r.energy == pytest.approx(
            spec.spinup_energy + self._transfer_joules(), rel=1e-12)

    def test_waited_request_that_gives_up_is_charged_from_arrival(self):
        spec = HITACHI_DK23DA
        faults = FaultSpec(spinup_retries=1, spinup_backoff=0.25)
        disk, done = self._spinning_down_at(21.0)
        disk.set_fault_schedule(
            FaultSchedule(faults, spinup_failures=[True, True]))
        at_arrival = disk.energy()
        r = disk.service(21.0, self.SIZE)
        assert r.waited_for_spindown and r.failed
        assert r.completion == pytest.approx(
            done + 2 * spec.spinup_time + faults.spinup_backoff)
        assert r.energy == disk.energy() - at_arrival
        assert r.energy == pytest.approx(
            2 * spec.spinup_energy
            + faults.spinup_backoff * spec.standby_power, rel=1e-12)

    def test_request_that_did_not_wait_is_charged_from_start(self):
        disk = HardDisk(initially_standby=False)
        first = disk.service(0.0, self.SIZE)
        # A queued request starts after the first completes; an idle gap
        # before the next one belongs to the gap, not to the request.
        queued = disk.service(0.0, self.SIZE)
        disk.advance_to(10.0)
        at_arrival = disk.energy()
        later = disk.service(10.0, self.SIZE)
        for r in (queued, later):
            assert not r.waited_for_spindown and not r.spun_up
        assert queued.start == first.completion
        for r in (queued, later):
            assert r.energy == pytest.approx(self._transfer_joules(),
                                             rel=1e-12)
        assert disk.energy() - at_arrival == later.energy


class TestPositioning:
    def test_unknown_position_costs_average(self):
        disk = HardDisk()
        assert disk.positioning_time(None) == pytest.approx(0.020)

    def test_contiguous_is_free(self):
        disk = HardDisk(initially_standby=False)
        disk.service(0.0, 8 * 4096, block=100, block_count=8)
        assert disk.positioning_time(108) == 0.0

    def test_near_seek_is_track_to_track(self):
        disk = HardDisk(initially_standby=False)
        disk.service(0.0, 4096, block=100, block_count=1)
        assert disk.positioning_time(110) == pytest.approx(1.5e-3)
        assert disk.positioning_time(101 + 64) == pytest.approx(1.5e-3)

    def test_far_seek_scales_with_distance(self):
        disk = HardDisk(initially_standby=False)
        disk.service(0.0, 4096, block=0, block_count=1)
        near = disk.positioning_time(10_000)
        far = disk.positioning_time(5_000_000)
        assert 1.5e-3 < near < far
        assert far <= disk.spec.avg_seek_time * 2.5 + 7e-3

    def test_full_span_seek_close_to_max(self):
        disk = HardDisk(initially_standby=False)
        disk.service(0.0, 4096, block=0, block_count=1)
        total_blocks = HITACHI_DK23DA.capacity_bytes // 4096
        t = disk.positioning_time(total_blocks)
        # k = (13 - 1.5) * 1.5 = 17.25 ms at full span, + t2t + rotation
        assert t == pytest.approx(1.5e-3 + 17.25e-3 + 7e-3, rel=1e-3)


class TestForceSpinup:
    def test_spins_up_to_idle(self):
        disk = HardDisk()
        ready = disk.force_spinup(0.0)
        assert ready == pytest.approx(1.6)
        assert disk.state == DiskState.IDLE.value
        assert disk.spinup_count == 1
        assert disk.energy(1.6) == pytest.approx(5.0 + 0.15 * 0,
                                                 abs=5.2)

    def test_noop_when_spinning(self):
        disk = HardDisk(initially_standby=False)
        assert disk.force_spinup(3.0) == 3.0
        assert disk.spinup_count == 0


class TestEstimate:
    def test_estimate_matches_service_warm(self):
        disk = HardDisk(initially_standby=False)
        t, e = disk.estimate_service(1 * MB)
        r = HardDisk(initially_standby=False).service(0.0, 1 * MB)
        assert t == pytest.approx(r.completion)
        assert e == pytest.approx(r.energy, rel=1e-6)

    def test_estimate_includes_spinup_when_standby(self):
        disk = HardDisk()
        t_cold, e_cold = disk.estimate_service(4096)
        t_warm, e_warm = disk.estimate_service(
            4096, from_state=DiskState.IDLE.value)
        assert t_cold - t_warm == pytest.approx(1.6)
        assert e_cold > e_warm + 5.0 - 1e-9

    def test_estimate_sequential_skips_seek(self):
        disk = HardDisk(initially_standby=False)
        t_seq, _ = disk.estimate_service(4096, sequential=True)
        t_rand, _ = disk.estimate_service(4096)
        assert t_rand - t_seq == pytest.approx(0.020)

    def test_estimate_does_not_mutate(self):
        disk = HardDisk()
        disk.estimate_service(1 * MB)
        assert disk.state == DiskState.STANDBY.value
        assert disk.spinup_count == 0

    def test_keep_alive_power(self):
        assert HardDisk().keep_alive_power() == 1.6
