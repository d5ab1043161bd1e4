"""Tests for concurrent profiled programs (§2.3.4 profile merging)."""

import pytest

from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from tests.conftest import make_trace


def media_trace(name="media", inode=1):
    """Periodic medium reads, network-friendly."""
    calls = [(inode, i * 262144, 262144, "read", i * 8.0)
             for i in range(12)]
    return make_trace(calls, name=name,
                      file_sizes={inode: 12 * 262144})


def scan_trace(name="scan", inode=2):
    """One dense sweep, disk-friendly."""
    calls = [(inode, i * 131072, 131072, "read", 50.0 + i * 0.001)
             for i in range(128)]
    return make_trace(calls, name=name,
                      file_sizes={inode: 128 * 131072})


class TestForPrograms:
    def test_requires_profiles(self):
        with pytest.raises(ValueError):
            FlexFetchPolicy.for_programs([])

    def test_single_profile_passthrough(self):
        profile = profile_from_trace(media_trace())
        policy = FlexFetchPolicy.for_programs([profile])
        assert policy.profile.total_bytes == profile.total_bytes

    def test_merged_profile_covers_both(self):
        pa = profile_from_trace(media_trace())
        pb = profile_from_trace(scan_trace())
        policy = FlexFetchPolicy.for_programs([pa, pb])
        assert policy.profile.total_bytes == \
            pa.total_bytes + pb.total_bytes

    def test_merged_bursts_time_ordered(self):
        pa = profile_from_trace(media_trace())
        pb = profile_from_trace(scan_trace())
        merged = FlexFetchPolicy.for_programs([pa, pb]).profile
        starts = [b.start for b in merged.bursts]
        assert starts == sorted(starts)


class TestConcurrentReplay:
    def test_two_profiled_programs_share_one_policy(self):
        a, b = media_trace(), scan_trace()
        policy = FlexFetchPolicy.for_programs(
            [profile_from_trace(a), profile_from_trace(b)])
        result = SimulationSession([ProgramSpec(a), ProgramSpec(b)],
                                   policy, seed=1).run()
        # The policy counted both programs' demand bytes.
        assert policy.observed_bytes == pytest.approx(
            sum(r.size for r in a.data_records())
            + sum(r.size for r in b.data_records()), rel=0.01)
        assert result.total_energy > 0

    def test_aggregate_beats_worse_fixed_policy(self):
        """The mixed workload has a disk-favoured phase and a
        network-favoured cadence; the merged-profile FlexFetch should
        not lose to both fixed baselines."""
        a, b = media_trace(), scan_trace()
        policy = FlexFetchPolicy.for_programs(
            [profile_from_trace(a), profile_from_trace(b)])
        ff = SimulationSession([ProgramSpec(a), ProgramSpec(b)], policy,
                               seed=1).run()
        disk = SimulationSession([ProgramSpec(a), ProgramSpec(b)],
                                 DiskOnlyPolicy(), seed=1).run()
        wnic = SimulationSession([ProgramSpec(a), ProgramSpec(b)],
                                 WnicOnlyPolicy(), seed=1).run()
        assert ff.total_energy <= max(disk.total_energy,
                                      wnic.total_energy)
