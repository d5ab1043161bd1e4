"""Unit and property tests for energy/state accounting."""

from collections import defaultdict

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.metrics import EnergyMeter, StateTimeline, TimeWeightedStat


class TestEnergyMeter:
    def test_constant_power_integration(self):
        m = EnergyMeter()
        m.set_power(0.0, 2.0, "active")
        m.advance(10.0)
        assert m.total() == pytest.approx(20.0)

    def test_power_change_mid_interval(self):
        m = EnergyMeter()
        m.set_power(0.0, 2.0, "active")
        m.set_power(5.0, 0.5, "idle")   # advances to 5 first
        m.advance(10.0)
        assert m.total() == pytest.approx(2.0 * 5 + 0.5 * 5)
        assert m.breakdown()["active"] == pytest.approx(10.0)
        assert m.breakdown()["idle"] == pytest.approx(2.5)

    def test_impulse(self):
        m = EnergyMeter()
        m.add_impulse(5.0, "spinup")
        assert m.total() == pytest.approx(5.0)
        assert m.breakdown() == {"spinup": 5.0}

    def test_negative_impulse_rejected(self):
        m = EnergyMeter()
        with pytest.raises(ValueError):
            m.add_impulse(-1.0, "x")

    def test_negative_power_rejected(self):
        m = EnergyMeter()
        with pytest.raises(ValueError):
            m.set_power(0.0, -2.0, "x")

    def test_total_with_projection(self):
        m = EnergyMeter()
        m.set_power(0.0, 1.0, "x")
        m.advance(4.0)
        assert m.total(upto=10.0) == pytest.approx(10.0)
        # projection does not mutate
        assert m.total() == pytest.approx(4.0)

    def test_rewind_is_clamped(self):
        m = EnergyMeter()
        m.set_power(0.0, 1.0, "x")
        m.advance(10.0)
        m.advance(5.0)          # no-op, never rewinds
        assert m.last_time == 10.0
        assert m.total() == pytest.approx(10.0)

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 5)),
                    min_size=1, max_size=30))
    def test_total_is_nonnegative_and_monotone(self, steps):
        m = EnergyMeter()
        t = 0.0
        prev_total = 0.0
        for dt, watts in steps:
            t += dt
            m.set_power(t, watts, "b")
            total = m.total()
            assert total >= prev_total - 1e-9
            prev_total = total


class TestStateTimeline:
    def test_residency(self):
        tl = StateTimeline("idle", 0.0)
        tl.record(4.0, "active")
        tl.record(6.0, "idle")
        res = tl.residency(10.0)
        assert res["idle"] == pytest.approx(8.0)
        assert res["active"] == pytest.approx(2.0)

    def test_duplicate_states_coalesce(self):
        tl = StateTimeline("idle")
        tl.record(1.0, "idle")
        tl.record(2.0, "idle")
        assert len(tl) == 1

    def test_monotonicity_enforced(self):
        tl = StateTimeline("idle", 5.0)
        with pytest.raises(ValueError):
            tl.record(1.0, "active")

    def test_segments_clip_at_end(self):
        tl = StateTimeline("a", 0.0)
        tl.record(3.0, "b")
        segs = list(tl.segments(2.0))
        assert segs == [(0.0, 2.0, "a")]

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                    max_size=40))
    def test_residency_sums_to_elapsed(self, states):
        tl = StateTimeline("a", 0.0)
        for i, s in enumerate(states):
            tl.record(float(i + 1), s)
        end = float(len(states) + 3)
        assert sum(tl.residency(end).values()) == pytest.approx(end)


def _reference_residency(tl, end_time):
    """The sum over ``segments()`` that ``residency`` must reproduce."""
    out = defaultdict(float)
    for start, end, state in tl.segments(end_time):
        out[state] += end - start
    return dict(out)


class TestResidencyMatchesSegments:
    """``residency`` is a plain loop over the timeline; it must add the
    same segments in the same order as the sum over ``segments()``, so
    its floats are equal, not close."""

    def test_end_before_the_last_change(self):
        tl = StateTimeline("a", 1.0)
        for t, s in ((2.5, "b"), (4.0, "c"), (7.0, "a")):
            tl.record(t, s)
        for end in (0.5, 1.0, 2.5, 3.0, 5.0, 7.0):
            assert tl.residency(end) == _reference_residency(tl, end)
        assert tl.residency(3.0) == {"a": 1.5, "b": 0.5}
        assert tl.residency(1.0) == {"a": 0.0}

    def test_coalesced_duplicate_states(self):
        tl = StateTimeline("a", 0.0)
        for t, s in ((1.0, "a"), (2.0, "b"), (2.0, "b"), (3.0, "b"),
                     (3.0, "a")):
            tl.record(t, s)
        assert len(tl) == 3
        assert tl.residency(10.0) == _reference_residency(tl, 10.0) \
            == {"a": 9.0, "b": 1.0}

    @given(start=st.floats(-50.0, 50.0, allow_nan=False),
           steps=st.lists(
               st.tuples(st.one_of(st.just(0.0),
                                   st.floats(0.0, 30.0, allow_nan=False)),
                         st.sampled_from(["active", "idle", "standby"])),
               max_size=40),
           end_offset=st.floats(-10.0, 1500.0, allow_nan=False))
    @example(start=0.0, steps=[(1.0, "idle"), (1.0, "active")],
             end_offset=1.5)
    def test_equals_the_sum_over_segments(self, start, steps, end_offset):
        tl = StateTimeline("active", start)
        t = start
        for dt, state in steps:
            t += dt
            tl.record(t, state)
        end = start + end_offset
        got = tl.residency(end)
        want = _reference_residency(tl, end)
        assert got == want
        assert list(got) == list(want)     # same first-seen order


class TestTimeWeightedStat:
    def test_mean(self):
        s = TimeWeightedStat()
        s.update(0.0, 2.0)
        s.update(10.0, 4.0)     # value was 2.0 for 10 s
        s.update(20.0, 0.0)     # value was 4.0 for 10 s
        assert s.mean() == pytest.approx(3.0)

    def test_mean_with_projection(self):
        s = TimeWeightedStat()
        s.update(0.0, 2.0)
        assert s.mean(now=5.0) == pytest.approx(2.0)

    def test_empty_mean_is_zero(self):
        assert TimeWeightedStat().mean() == 0.0

    def test_backwards_time_rejected(self):
        s = TimeWeightedStat()
        s.update(5.0, 1.0)
        with pytest.raises(ValueError):
            s.update(4.0, 1.0)
