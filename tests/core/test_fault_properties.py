"""Property-based fault-injection tests.

Random small workloads under random (but seeded, deterministic) fault
schedules: every policy must complete the trace, every run must pass
the audit every replay runs, and injected faults can only ever cost a
device energy, never save it (failover aside — see TestFaultsOnlyCost).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace


@st.composite
def workload(draw):
    """A small random but coherent workload (seconds to replay)."""
    n_files = draw(st.integers(1, 2))
    file_pages = [draw(st.integers(4, 256)) for _ in range(n_files)]
    files = {i + 1: FileInfo(inode=i + 1, path=f"f{i}",
                             size_bytes=p * 4096)
             for i, p in enumerate(file_pages)}
    n = draw(st.integers(1, 18))
    records = []
    ts = 0.0
    for _ in range(n):
        inode = draw(st.integers(1, n_files))
        limit = files[inode].size_bytes
        op = draw(st.sampled_from([OpType.READ, OpType.READ,
                                   OpType.WRITE]))
        offset = draw(st.integers(0, max(0, limit - 4096)))
        size = draw(st.integers(1, min(131072, limit - offset)))
        ts += draw(st.sampled_from([0.001, 0.5, 3.0, 25.0]))
        records.append(SyscallRecord(
            pid=1, fd=3, inode=inode, offset=offset, size=size, op=op,
            timestamp=ts, duration=0.0))
    return Trace("random", records, files)


@st.composite
def fault_spec(draw):
    """A random non-trivial (or deliberately trivial) fault spec."""
    return FaultSpec(
        outage_rate=draw(st.sampled_from([0.0, 0.005, 0.02])),
        outage_mean=draw(st.sampled_from([5.0, 20.0])),
        rate_flap_rate=draw(st.sampled_from([0.0, 0.01])),
        spinup_fail_prob=draw(st.sampled_from([0.0, 0.25])),
        network_timeout=draw(st.sampled_from([2.0, 5.0])),
        network_retries=draw(st.integers(0, 2)),
        spinup_retries=draw(st.integers(0, 2)),
    )


POLICIES = {
    "disk-only": lambda trace: DiskOnlyPolicy(),
    "wnic-only": lambda trace: WnicOnlyPolicy(),
    "bluefs": lambda trace: BlueFSPolicy(),
    "flexfetch": lambda trace: FlexFetchPolicy(profile_from_trace(trace)),
}

COMMON = dict(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def _run(trace, make_policy, *, faults=None):
    return SimulationSession([ProgramSpec(trace)], make_policy(trace),
                             seed=1, faults=faults).run()


class TestEveryPolicyCompletesUnderFaults:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @settings(**COMMON)
    @given(trace=workload(), spec=fault_spec(),
           fault_seed=st.integers(0, 2**31 - 1))
    def test_completes_and_invariants_hold(self, name, trace, spec,
                                           fault_seed):
        """The run audit (service order, energy, exactly-once,
        conservation) holds on every faulted run, and the whole trace
        is serviced."""
        make_policy = POLICIES[name]
        faults = FaultSchedule(spec, seed=fault_seed)
        result = _run(trace, make_policy, faults=faults)
        assert result.requests == len(trace.data_records())


class TestFaultsOnlyCost:
    """Faults never make a run cheaper — per device.

    The guarantee is per-device, not global: a failover legitimately
    re-routes work onto the *other* device, which may be cheaper for
    that workload (e.g. spin-up failures push a disk-only run onto the
    WNIC and the disk then idles in standby).  So the monotonicity
    property is asserted whenever no failover re-routed any bytes, and
    unconditionally when failover is structurally impossible
    (a disk-pinned program has no remote replica to fail over to).
    """

    @pytest.mark.parametrize("name", ["disk-only", "wnic-only"])
    @settings(**COMMON)
    @given(trace=workload(), spec=fault_spec(),
           fault_seed=st.integers(0, 2**31 - 1))
    def test_energy_at_least_fault_free_without_failover(self, name, trace,
                                                         spec, fault_seed):
        make_policy = POLICIES[name]
        base = _run(trace, make_policy)
        faulted = _run(trace, make_policy,
                       faults=FaultSchedule(spec, seed=fault_seed))
        if sum(faulted.fault_failovers.values()) == 0:
            assert faulted.total_energy >= base.total_energy - 1e-6

    @settings(**COMMON)
    @given(trace=workload(), spec=fault_spec(),
           fault_seed=st.integers(0, 2**31 - 1))
    def test_pinned_disk_faults_strictly_additive(self, trace, spec,
                                                  fault_seed):
        """With no replica to fail over to, spin-up failures can only
        ever add retries and energy on the disk itself."""
        def run(faults=None):
            return SimulationSession(
                [ProgramSpec(trace, profiled=False, disk_pinned=True)],
                DiskOnlyPolicy(), seed=1, faults=faults).run()

        base = run()
        faulted = run(faults=FaultSchedule(spec, seed=fault_seed))
        assert faulted.total_energy >= base.total_energy - 1e-6


class TestScheduleDeterminismUnderReplay:
    @settings(**COMMON)
    @given(trace=workload(), spec=fault_spec(),
           fault_seed=st.integers(0, 2**31 - 1))
    def test_same_schedule_same_run(self, trace, spec, fault_seed):
        a = _run(trace, POLICIES["wnic-only"],
                 faults=FaultSchedule(spec, seed=fault_seed))
        b = _run(trace, POLICIES["wnic-only"],
                 faults=FaultSchedule(spec, seed=fault_seed))
        assert a.total_energy == b.total_energy
        assert a.end_time == b.end_time
        assert a.fault_retries == b.fault_retries
