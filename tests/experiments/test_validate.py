"""Tests for the physical-consistency validators — and, through them,
energy-conservation integration tests of the whole simulator."""


import pytest

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.validate import validate_run
from tests.conftest import make_trace


def run(trace, policy, **kw):
    return SimulationSession([ProgramSpec(trace)], policy, seed=3,
                             **kw).run()


def mixed_trace():
    calls = []
    t = 0.0
    for i in range(30):
        calls.append((1, i * 131072, 131072, "read", t))
        t += 0.8 if i % 3 else 25.0
    calls.append((2, 0, 262144, "write", t))
    return make_trace(calls, name="mixed",
                      file_sizes={1: 30 * 131072, 2: 262144})


class TestCleanRunsValidate:
    @pytest.mark.parametrize("policy_factory", [
        DiskOnlyPolicy, WnicOnlyPolicy, BlueFSPolicy])
    def test_fixed_and_reactive_policies(self, policy_factory):
        issues = validate_run(run(mixed_trace(), policy_factory()))
        assert issues == [], [str(i) for i in issues]

    def test_flexfetch_run(self):
        trace = mixed_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        issues = validate_run(run(trace, policy))
        assert issues == [], [str(i) for i in issues]

    def test_every_table3_workload_validates(self):
        """End-to-end conservation across all six applications."""
        from repro.traces.synth import TABLE3_GENERATORS
        for name, gen in TABLE3_GENERATORS.items():
            trace = gen(seed=3)
            result = run(trace, DiskOnlyPolicy())
            issues = validate_run(result)
            assert issues == [], (name, [str(i) for i in issues])


class TestDetectsCorruption:
    def _clean_result(self):
        return run(mixed_trace(), DiskOnlyPolicy())

    def test_detects_energy_mismatch(self):
        result = self._clean_result()
        result.disk_breakdown["disk.active"] += 100.0
        assert any(i.check == "breakdown"
                   for i in validate_run(result))

    def test_detects_residency_gap(self):
        result = self._clean_result()
        result.disk_residency["idle"] += 100.0
        checks = {i.check for i in validate_run(result)}
        assert "residency" in checks or "conservation" in checks

    def test_detects_negative_energy(self):
        result = self._clean_result()
        result.disk_energy = -1.0
        assert any(i.check == "energy" for i in validate_run(result))

    def test_detects_time_inversion(self):
        result = self._clean_result()
        result.foreground_time = result.end_time + 5.0
        assert any(i.check == "time" for i in validate_run(result))

    def test_detects_ghost_bytes(self):
        result = self._clean_result()
        result.device_bytes["network"] = 1000
        result.device_requests["network"] = 0
        assert any(i.check == "routing" for i in validate_run(result))

    def test_detects_conservation_violation(self):
        result = self._clean_result()
        result.disk_energy += 500.0
        result.disk_breakdown["disk.active"] += 500.0
        assert any(i.check == "conservation"
                   for i in validate_run(result))


class TestExactImpulseBooks:
    """Every impulse bucket is its transition count times the datasheet
    energy, and every bucket is one its device declares."""

    def _clean_result(self, policy):
        return run(mixed_trace(), policy)

    def _charge(self, result, device, bucket, joules):
        breakdown = getattr(result, f"{device}_breakdown")
        breakdown[bucket] = breakdown.get(bucket, 0.0) + joules
        setattr(result, f"{device}_energy",
                getattr(result, f"{device}_energy") + joules)

    def test_clean_runs_balance_every_impulse(self):
        for policy in (DiskOnlyPolicy(), WnicOnlyPolicy()):
            result = self._clean_result(policy)
            assert result.disk_spindowns > 0 or result.wnic_dozes > 0
            assert validate_run(result) == []

    def test_detects_a_doze_charged_twice(self):
        from repro.devices.specs import AIRONET_350
        result = self._clean_result(WnicOnlyPolicy())
        assert result.wnic_breakdown.get("wnic.doze", 0.0) > 0.0
        self._charge(result, "wnic", "wnic.doze",
                     AIRONET_350.cam_to_psm_energy)
        assert any(i.check == "impulses" for i in validate_run(result))

    def test_detects_an_undeclared_bucket(self):
        result = self._clean_result(WnicOnlyPolicy())
        self._charge(result, "wnic", "wnic.turbo", 0.5)
        assert any(i.check == "breakdown" and "wnic.turbo" in i.detail
                   for i in validate_run(result))

    @pytest.mark.parametrize("device,bucket,energy", [
        ("disk", "disk.spinup", "spinup_energy"),
        ("disk", "disk.spindown", "spindown_energy"),
        ("disk", "disk.wake", "wake_energy"),
        ("wnic", "wnic.wakeup", "psm_to_cam_energy"),
    ])
    def test_detects_one_extra_impulse(self, device, bucket, energy):
        from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
        spec = HITACHI_DK23DA if device == "disk" else AIRONET_350
        result = self._clean_result(
            DiskOnlyPolicy() if device == "disk" else WnicOnlyPolicy())
        self._charge(result, device, bucket, getattr(spec, energy))
        assert any(i.check == "impulses" for i in validate_run(result))

    def test_wakes_are_counted_apart_from_spinups(self):
        from repro.devices.specs import HITACHI_DK23DA
        spec = HITACHI_DK23DA.with_sleep(2.0)
        result = run(mixed_trace(), DiskOnlyPolicy(), disk_spec=spec)
        assert 0 < result.disk_wakes <= result.disk_spinups
        result.disk_wakes -= 1
        assert any(i.check == "impulses"
                   for i in validate_run(result, disk_spec=spec))


class TestAcrossDeviceVariants:
    def test_sleep_enabled_disk_validates(self):
        from repro.devices.specs import HITACHI_DK23DA
        spec = HITACHI_DK23DA.with_sleep(30.0)
        result = run(mixed_trace(), DiskOnlyPolicy(), disk_spec=spec)
        issues = validate_run(result, disk_spec=spec)
        assert issues == [], [str(i) for i in issues]

    def test_disk_woken_from_sleep_validates(self):
        """A wake from sleep is priced as a wake, not a spin-up."""
        from repro.devices.specs import HITACHI_DK23DA
        spec = HITACHI_DK23DA.with_sleep(2.0)
        result = run(mixed_trace(), DiskOnlyPolicy(), disk_spec=spec)
        assert result.disk_breakdown.get("disk.wake", 0.0) > 0.0
        issues = validate_run(result, disk_spec=spec)
        assert issues == [], [str(i) for i in issues]

    def test_adaptive_dpm_validates(self):
        from repro.devices.dpm import AdaptiveTimeout
        result = run(mixed_trace(), DiskOnlyPolicy(),
                     spindown_policy=AdaptiveTimeout(initial=20.0))
        issues = validate_run(result)
        assert issues == [], [str(i) for i in issues]

    def test_psm_transfer_wnic_validates(self):
        from repro.devices.specs import AIRONET_350
        spec = AIRONET_350.with_psm_transfers()
        result = run(mixed_trace(), WnicOnlyPolicy(), wnic_spec=spec)
        issues = validate_run(result, wnic_spec=spec)
        assert issues == [], [str(i) for i in issues]
