"""Unit tests for execution profiles and evaluation stages (§2.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.profile import (
    STAGE_LENGTH_DEFAULT,
    ExecutionProfile,
    profile_from_trace,
)
from repro.traces.record import OpType


def burst(nbytes, start, dur):
    req = ProfiledRequest(inode=1, offset=0, size=nbytes, op=OpType.READ)
    return IOBurst(requests=(req,), start=start, end=start + dur)


def profile(spec):
    """Build from (nbytes, duration, think_after) tuples."""
    bursts = []
    thinks = []
    t = 0.0
    for nbytes, dur, think in spec:
        bursts.append(burst(nbytes, t, dur))
        thinks.append(think)
        t += dur + think
    return ExecutionProfile(bursts, thinks)


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExecutionProfile([burst(1, 0, 1)], [])

    def test_totals(self):
        p = profile([(100, 1.0, 5.0), (200, 2.0, 0.0)])
        assert p.total_bytes == 300
        assert p.total_duration == pytest.approx(8.0)

    def test_empty_profile(self):
        p = ExecutionProfile([], [])
        assert p.total_bytes == 0
        assert len(p) == 0
        assert p.stages() == []


class TestByteIndexing:
    def test_bytes_through(self):
        p = profile([(100, 1, 1), (200, 1, 1), (300, 1, 0)])
        assert p.bytes_through(0) == 100
        assert p.bytes_through(2) == 600
        with pytest.raises(IndexError):
            p.bytes_through(3)

    def test_burst_index_for_bytes(self):
        p = profile([(100, 1, 1), (200, 1, 1), (300, 1, 0)])
        assert p.burst_index_for_bytes(0) == 0
        assert p.burst_index_for_bytes(99) == 0
        assert p.burst_index_for_bytes(100) == 1   # burst 0 consumed
        assert p.burst_index_for_bytes(299) == 1
        assert p.burst_index_for_bytes(300) == 2
        assert p.burst_index_for_bytes(600) == 3   # past the end
        assert p.burst_index_for_bytes(9999) == 3


class TestStages:
    def test_default_stage_length(self):
        assert STAGE_LENGTH_DEFAULT == 40.0

    def test_segmentation_just_exceeds_threshold(self):
        # Bursts of 1 s each followed by 15 s thinks: 16 s per entry,
        # so a stage closes after 3 entries (48 s > 40 s).
        p = profile([(100, 1.0, 15.0)] * 6)
        stages = p.stages(40.0)
        assert [s.burst_count for s in stages] == [3, 3]
        assert stages[0].duration == pytest.approx(48.0)
        assert stages[0].nbytes == 300

    def test_last_stage_takes_remainder(self):
        p = profile([(100, 1.0, 15.0)] * 4)
        stages = p.stages(40.0)
        assert [s.burst_count for s in stages] == [3, 1]

    def test_single_giant_burst_is_one_stage(self):
        p = profile([(10_000, 120.0, 0.0)])
        stages = p.stages(40.0)
        assert len(stages) == 1

    def test_stage_indices_cover_profile(self):
        p = profile([(10, 2.0, 3.0)] * 25)
        stages = p.stages(40.0)
        assert stages[0].first == 0
        assert stages[-1].last == 24
        for a, b in zip(stages, stages[1:], strict=False):
            assert b.first == a.last + 1

    def test_stage_slice(self):
        p = profile([(100, 1.0, 15.0)] * 6)
        stages = p.stages(40.0)
        bursts, thinks = p.stage_slice(stages[1])
        assert len(bursts) == 3
        assert sum(b.nbytes for b in bursts) == 300

    def test_invalid_stage_length_rejected(self):
        with pytest.raises(ValueError):
            profile([(1, 1, 1)]).stages(0.0)


class TestSplice:
    def test_observed_replaces_covered_prefix(self):
        old = profile([(100, 1, 1), (200, 1, 1), (300, 1, 0)])
        observed = [burst(150, 0, 0.5)]
        spliced = old.spliced(observed, [0.2])
        # 150 observed bytes cover old burst 0 (100 B): replaced by the
        # observed burst, old bursts 1.. retained.
        assert len(spliced) == 3
        assert spliced.bursts[0].nbytes == 150
        assert spliced.bursts[1].nbytes == 200

    def test_observed_covering_everything(self):
        old = profile([(100, 1, 1), (200, 1, 0)])
        observed = [burst(500, 0, 2.0)]
        spliced = old.spliced(observed, [0.0])
        assert len(spliced) == 1
        assert spliced.total_bytes == 500

    def test_empty_observation_is_identity(self):
        old = profile([(100, 1, 1), (200, 1, 0)])
        spliced = old.spliced([], [])
        assert spliced.total_bytes == old.total_bytes
        assert len(spliced) == len(old)

    def test_mismatched_lengths_rejected(self):
        old = profile([(100, 1, 0)])
        with pytest.raises(ValueError):
            old.spliced([burst(1, 0, 1)], [])


# (nbytes, duration, think_after) of one burst.
_burst_spec = st.tuples(st.integers(1, 1000), st.floats(0.0, 30.0),
                        st.floats(0.0, 30.0))


class TestImplicitSplice:
    """The assembled profile's upcoming slice is the old profile's.

    FlexFetch relies on this to slice the old profile directly instead
    of building ``spliced`` at every decision.
    """

    @settings(max_examples=200, deadline=None)
    @given(old=st.lists(_burst_spec, max_size=12),
           observed=st.lists(_burst_spec, max_size=12),
           horizon=st.floats(0.0, 200.0))
    def test_spliced_upcoming_slice_is_old_slice(self, old, observed,
                                                 horizon):
        old_profile = profile(old)
        obs = profile(observed)
        seen = obs.total_bytes
        spliced = old_profile.spliced(obs.bursts, obs.thinks)
        assert spliced.upcoming_slice(seen, horizon) == \
            old_profile.upcoming_slice(seen, horizon)

    def test_empty_observation(self):
        old = profile([(100, 1.0, 5.0), (200, 2.0, 0.0)])
        assert old.spliced([], []).upcoming_slice(0, 10.0) == \
            old.upcoming_slice(0, 10.0) == (list(old.bursts),
                                            list(old.thinks))

    def test_observation_past_the_end(self):
        old = profile([(100, 1.0, 5.0), (200, 2.0, 0.0)])
        observed = [burst(250, 0.0, 1.0), burst(100, 3.0, 1.0)]
        spliced = old.spliced(observed, [2.0, 0.0])
        assert spliced.upcoming_slice(350, 100.0) == \
            old.upcoming_slice(350, 100.0) == ([], [])
        assert old.upcoming_range(350, 100.0) == (2, 2)


class TestMerge:
    def test_merged_interleaves_by_time(self):
        a = ExecutionProfile([burst(10, 0.0, 1.0), burst(10, 10.0, 1.0)],
                             [9.0, 0.0], name="a")
        b = ExecutionProfile([burst(20, 5.0, 1.0)], [0.0], name="b")
        m = a.merged_with(b)
        assert [bu.start for bu in m.bursts] == [0.0, 5.0, 10.0]
        assert m.thinks[0] == pytest.approx(4.0)   # 5.0 - end(1.0)
        assert m.thinks[1] == pytest.approx(4.0)   # 10.0 - end(6.0)


class TestFromTrace:
    def test_profile_from_trace(self, tiny_trace):
        p = profile_from_trace(tiny_trace)
        assert len(p) == 2                    # 5 s gap splits
        assert p.total_bytes == 3 * 4096
        assert p.name == tiny_trace.name
