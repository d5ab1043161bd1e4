"""Property-based integration tests: random workloads, physical laws.

Hypothesis generates small random workloads; every replay, under every
policy, must satisfy the :mod:`repro.experiments.validate` invariants
(energy conservation, residency coverage, routing consistency) and a
few cross-policy laws.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.validate import validate_run
from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace


@st.composite
def workload(draw):
    """A small random but coherent workload (seconds to replay)."""
    n_files = draw(st.integers(1, 3))
    file_pages = [draw(st.integers(1, 512)) for _ in range(n_files)]
    files = {i + 1: FileInfo(inode=i + 1, path=f"f{i}",
                             size_bytes=p * 4096)
             for i, p in enumerate(file_pages)}
    n = draw(st.integers(1, 30))
    records = []
    ts = 0.0
    for _ in range(n):
        inode = draw(st.integers(1, n_files))
        limit = files[inode].size_bytes
        op = draw(st.sampled_from([OpType.READ, OpType.READ,
                                   OpType.WRITE]))
        offset = draw(st.integers(0, max(0, limit - 4096)))
        size = draw(st.integers(1, min(262144, limit - offset)))
        ts += draw(st.sampled_from([0.001, 0.5, 3.0, 25.0]))
        records.append(SyscallRecord(
            pid=1, fd=3, inode=inode, offset=offset, size=size, op=op,
            timestamp=ts, duration=0.0))
    return Trace("random", records, files)


COMMON = dict(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class TestConservationLaws:
    @settings(**COMMON)
    @given(workload())
    def test_disk_only_validates(self, trace):
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1).run()
        assert validate_run(result) == []

    @settings(**COMMON)
    @given(workload())
    def test_wnic_only_validates(self, trace):
        result = SimulationSession([ProgramSpec(trace)], WnicOnlyPolicy(),
                                   seed=1).run()
        assert validate_run(result) == []

    @settings(**COMMON)
    @given(workload())
    def test_bluefs_validates(self, trace):
        result = SimulationSession([ProgramSpec(trace)], BlueFSPolicy(),
                                   seed=1).run()
        assert validate_run(result) == []

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload())
    def test_flexfetch_validates(self, trace):
        policy = FlexFetchPolicy(profile_from_trace(trace))
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        assert validate_run(result) == []


class TestCrossPolicyLaws:
    @settings(**COMMON)
    @given(workload())
    def test_runs_are_deterministic(self, trace):
        a = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                              seed=5).run()
        b = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                              seed=5).run()
        assert a.total_energy == b.total_energy
        assert a.end_time == b.end_time

    @settings(**COMMON)
    @given(workload())
    def test_single_source_policies_route_exclusively(self, trace):
        disk = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                 seed=1).run()
        assert disk.device_bytes["network"] == 0
        wnic = SimulationSession([ProgramSpec(trace)], WnicOnlyPolicy(),
                                 seed=1).run()
        assert wnic.device_bytes["disk"] == 0

    @settings(**COMMON)
    @given(workload())
    def test_baseline_floor(self, trace):
        """Energy is never below each device's idle floor for the run."""
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1).run()
        floor = result.end_time * (0.15 + 0.39)   # standby + PSM
        assert result.total_energy >= floor * 0.95

    @settings(**COMMON)
    @given(workload())
    def test_end_time_covers_trace_thinks(self, trace):
        """Closed-loop replay can only stretch, never shrink, the span
        of think time between first and last request."""
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=1).run()
        data = trace.data_records()
        think_span = data[-1].timestamp - data[0].end_time
        assert result.end_time >= max(0.0, think_span) - 1e-6
