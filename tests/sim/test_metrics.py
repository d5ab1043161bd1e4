"""Unit and property tests for energy/state accounting.

Per-state residency accrues on a device's power core
(:mod:`repro.devices.power`); its tests live here with the meter's.
"""

from collections import defaultdict

import pytest
from hypothesis import example, given, strategies as st

from repro.devices.power import PowerStateMachine, StateSpec, TransitionSpec
from repro.sim.metrics import EnergyMeter


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


STATES = ("active", "idle", "standby")


def _machine(start: float = 0.0,
             initial: str = "active") -> PowerStateMachine:
    """A machine whose states may all change into each other, and into
    themselves (a repeated state), freely and instantly."""
    return PowerStateMachine(
        "m", [StateSpec(name, 1.0) for name in STATES],
        [TransitionSpec(src, dst, 0.0, 0.0)
         for src in STATES for dst in STATES], initial, start)


class _Timeline:
    """The reference: an append-only list of ``(time, state)`` changes.

    A change is stamped at ``max(time, last change)``, a repeated state
    is coalesced, and a time more than 1e-9 before the last change
    raises.
    """

    def __init__(self, state: str, start: float) -> None:
        self.changes = [(start, state)]

    def record(self, time: float, state: str) -> None:
        last_time, last_state = self.changes[-1]
        if time < last_time - 1e-9:
            raise ValueError("time went backwards")
        if state != last_state:
            self.changes.append((max(time, last_time), state))

    def residency(self, end_time: float) -> dict[str, float]:
        """The sum over the segments, in order, from a zero per state."""
        out: defaultdict[str, float] = defaultdict(float)
        ends = [t for t, _ in self.changes[1:]] + [end_time]
        for (start, state), end in zip(self.changes, ends, strict=True):
            if end > start:
                out[state] += end - start
        return dict(out)


class TestStateTimeline:
    """A machine's state timeline accrues on its power core: each state
    change adds the seconds since the previous one to the state left."""

    def test_residency(self):
        m = _machine(initial="idle")
        m.transition(4.0, "active")
        m.transition(6.0, "idle")
        assert m.residency(10.0) == {"idle": 8.0, "active": 2.0}

    def test_duplicate_states_coalesce(self):
        m = _machine(initial="idle")
        m.transition(1.0, "idle")
        m.transition(2.0, "idle")
        assert m.core.state_seconds == {}
        assert m.core.state_since == 0.0
        assert m.residency(3.0) == {"idle": 3.0}

    def test_monotonicity_enforced(self):
        m = _machine(start=5.0, initial="idle")
        with pytest.raises(ValueError):
            m.transition(1.0, "active")
        # Within the 1e-9 slack, the change is stamped at the last one.
        m.transition(5.0 - 1e-10, "active")
        assert m.core.state_since == 5.0

    def test_segments_clip_at_end(self):
        m = _machine(initial="active")
        m.transition(3.0, "idle")
        assert m.residency(3.0) == {"active": 3.0}
        assert m.residency(4.5) == {"active": 3.0, "idle": 1.5}

    @given(st.lists(st.sampled_from(STATES), min_size=1, max_size=40))
    def test_residency_sums_to_elapsed(self, states):
        m = _machine()
        for i, s in enumerate(states):
            m.transition(float(i + 1), s)
        end = float(len(states) + 3)
        assert sum(m.residency(end).values()) == pytest.approx(end)


class TestResidencyMatchesSegments:
    """The accrual adds the same segments in the same order as a sum
    over the recorded changes, so its floats are equal, not close, and
    its keys come in the same first-seen order."""

    def test_end_before_the_last_change(self):
        m = _machine(start=1.0, initial="active")
        for t, s in ((2.5, "idle"), (4.0, "standby"), (7.0, "active")):
            m.transition(t, s)
        for end in (0.5, 1.0, 2.5, 6.9):
            with pytest.raises(ValueError):
                m.residency(end)
        assert m.residency(7.0) == {"active": 1.5, "idle": 1.5,
                                    "standby": 3.0}

    def test_coalesced_duplicate_states(self):
        m = _machine(initial="active")
        timeline = _Timeline("active", 0.0)
        for t, s in ((1.0, "active"), (2.0, "idle"), (2.0, "idle"),
                     (3.0, "idle"), (3.0, "active")):
            m.transition(t, s)
            timeline.record(t, s)
        assert len(timeline.changes) == 3
        assert m.residency(10.0) == timeline.residency(10.0) \
            == {"active": 9.0, "idle": 1.0}

    @given(start=st.floats(-50.0, 50.0, allow_nan=False),
           steps=st.lists(
               st.tuples(st.one_of(st.just(0.0),
                                   st.floats(-1e-3, 30.0, allow_nan=False)),
                         st.sampled_from(STATES)),
               max_size=40),
           end_offset=st.floats(0.0, 1500.0, allow_nan=False))
    @example(start=0.0, steps=[(1.0, "idle"), (1.0, "active")],
             end_offset=1.5)
    @example(start=0.0, steps=[(1.0, "idle"), (-1e-10, "standby"),
                               (0.0, "standby")], end_offset=0.0)
    def test_equals_the_sum_over_segments(self, start, steps, end_offset):
        """Random changes: equal-time ones, repeated states, steps back
        within and beyond the slack."""
        m = _machine(start=start)
        timeline = _Timeline("active", start)
        t = start
        for dt, state in steps:
            t += dt
            try:
                timeline.record(t, state)
            except ValueError:
                with pytest.raises(ValueError):
                    m.transition(t, state)
                return
            m.transition(t, state)
        end = timeline.changes[-1][0] + end_offset
        got = m.residency(end)
        want = timeline.residency(end)
        assert [(k, v.hex()) for k, v in got.items()] \
            == [(k, v.hex()) for k, v in want.items()]

