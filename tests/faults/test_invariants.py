"""Unit tests for the invariant audit every replay runs."""

from types import SimpleNamespace

import pytest

from repro.core import session as session_module
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.core.workload import ProgramDriver
from repro.devices.service import DiskService, WnicService
from repro.faults.invariants import (
    SimulationInvariantError,
    check_coverage,
    check_result,
    check_service,
)
from tests.conftest import make_trace


def _tiny_trace():
    return make_trace([
        (1, 0, 4096, "read", 0.0),
        (1, 4096, 8192, "read", 1.0),
        (1, 12288, 4096, "read", 30.0),
    ])


def _run_tiny():
    return SimulationSession([ProgramSpec(_tiny_trace())], DiskOnlyPolicy(),
                             seed=1).run()


def _run_plain(policy=DiskOnlyPolicy):
    """A default session: no flags, nothing switched on."""
    return SimulationSession([ProgramSpec(_tiny_trace())],
                             policy(), seed=1).run()


class TestErrorShape:
    def test_structured_fields(self):
        err = SimulationInvariantError("clock", "went backwards",
                                       {"now": 1.0, "previous": 2.0})
        assert err.check == "clock"
        assert err.context == {"now": 1.0, "previous": 2.0}
        assert "clock" in str(err)
        assert "now=1.0" in str(err)


class TestChecker:
    def test_non_causal_service_raises(self):
        class Result:
            arrival = 10.0
            start = 5.0
            completion = 6.0
            energy = 0.1

        with pytest.raises(SimulationInvariantError, match="service-order"):
            check_service(Result(), program="p", source="disk")

    def test_negative_service_energy_raises(self):
        class Result:
            arrival = 0.0
            start = 0.0
            completion = 1.0
            energy = -1.0

        with pytest.raises(SimulationInvariantError, match="energy"):
            check_service(Result(), program="p", source="disk")

    def test_missing_record_detected_at_end(self):
        grep = SimpleNamespace(name="grep", record_count=2, index=2,
                               done=True)
        with pytest.raises(SimulationInvariantError, match="exactly-once"):
            check_coverage([grep], requests=1)

    def test_unfinished_program_detected_at_end(self):
        grep = SimpleNamespace(name="grep", record_count=2, index=1,
                               done=False)
        with pytest.raises(SimulationInvariantError, match="exactly-once"):
            check_coverage([grep], requests=1)


class TestCheckResult:
    def test_clean_run_passes(self):
        check_result(_run_tiny())

    def test_corrupted_device_meter_caught(self):
        """A tampered meter total must trip the conservation audit."""
        result = _run_tiny()
        result.disk_energy += 100.0
        with pytest.raises(SimulationInvariantError):
            check_result(result)

    def test_corrupted_breakdown_caught(self):
        result = _run_tiny()
        result.disk_breakdown["disk.active"] = \
            result.disk_breakdown.get("disk.active", 0.0) + 50.0
        with pytest.raises(SimulationInvariantError, match="breakdown"):
            check_result(result)


class TestDefaultRunsAudited:
    def test_default_replay_passes_all_policies(self):
        from repro.core.bluefs import BlueFSPolicy
        from repro.core.flexfetch import FlexFetchPolicy
        from repro.core.policies import WnicOnlyPolicy
        from repro.core.profile import profile_from_trace
        trace = make_trace([
            (1, i * 4096, 4096, "read", i * 2.0) for i in range(12)
        ])
        for policy in (DiskOnlyPolicy(), WnicOnlyPolicy(), BlueFSPolicy(),
                       FlexFetchPolicy(profile_from_trace(trace))):
            result = SimulationSession([ProgramSpec(trace)], policy,
                                       seed=1).run()
            assert result.requests > 0

    def test_default_run_passes_on_scenario_workload(self):
        """The audit stays silent on a real figure workload."""
        from repro.core.flexfetch import FlexFetchPolicy
        from repro.traces.synth.scenarios import build_scenario
        scenario = build_scenario("grep", seed=7)
        result = SimulationSession(
            list(scenario.programs),
            FlexFetchPolicy(scenario.profile), seed=7).run()
        assert result.total_energy > 0


class TestPlainRunAudit:
    """A default session run raises when the replay breaks an invariant."""

    def test_skipped_record_raises_exactly_once(self, monkeypatch):
        class SkippingDriver(ProgramDriver):
            def advance(self):
                if self.index == 0:
                    self.index += 1  # record 1 is never serviced
                return super().advance()

        monkeypatch.setattr(session_module, "ProgramDriver",
                            SkippingDriver)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain()
        assert err.value.check == "exactly-once"

    def _doctor_results(self, monkeypatch, service, **fields):
        transfer = service.transfer

        def doctored(self, *args, **kwargs):
            return transfer(self, *args, **kwargs)._replace(**fields)

        monkeypatch.setattr(service, "transfer", doctored)

    def test_service_before_arrival_raises_service_order(self,
                                                         monkeypatch):
        self._doctor_results(monkeypatch, DiskService, start=-1.0)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain()
        assert err.value.check == "service-order"

    def test_negative_service_energy_raises_energy(self, monkeypatch):
        self._doctor_results(monkeypatch, DiskService, energy=-1.0)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain()
        assert err.value.check == "energy"

    def test_wnic_service_before_arrival_raises_service_order(
            self, monkeypatch):
        self._doctor_results(monkeypatch, WnicService, start=-1.0)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain(WnicOnlyPolicy)
        assert err.value.check == "service-order"

    def test_negative_wnic_service_energy_raises_energy(self, monkeypatch):
        self._doctor_results(monkeypatch, WnicService, energy=-1.0)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain(WnicOnlyPolicy)
        assert err.value.check == "energy"

    def test_meter_corrupted_after_replay_raises_conservation(
            self, monkeypatch):
        replay = SimulationSession._replay

        def corrupting(self):
            replay(self)
            self.env.disk.meter.add_impulse(100.0, "disk.active")

        monkeypatch.setattr(SimulationSession, "_replay", corrupting)
        with pytest.raises(SimulationInvariantError) as err:
            _run_plain()
        assert err.value.check == "conservation"
