"""Generic timed power-state machine.

Both device models share the same skeleton: a set of named states each
drawing constant power, and transitions that take wall time and burn a
lump of energy.  :class:`PowerCore` holds a machine's whole operating
point in one slots record: the energy meter it extends (clock, draw,
joules per bucket), the power state, the DPM timers and the seconds
spent in each state.  :class:`PowerStateMachine` wraps a core with the
state and transition tables.

Each device adds one plain *step* function over its core
(:func:`~repro.devices.disk.disk_step`,
:func:`~repro.devices.wnic.wnic_step`) that owns its DPM timeouts and
fault-free request service.  ``step(core, time)`` fires the timeouts
due by ``time`` and integrates the draw up to it;
``step(core, time, size, recv, block, nblocks)`` then serves one
request from ``time`` and returns its ``(start, first_byte,
completion)`` (a pure advance returns ``time`` thrice).  The buckets
are charged in event order, so the float sums agree on every core.
The live device calls the step on its own core; FlexFetch's on-line
estimator (§2.2) calls the same step on a :meth:`PowerCore.what_if`
copy, so the estimate starts from the device's *actual* operating
point and can never drift from it.

A live core accrues the seconds per state at every state change, in
:meth:`PowerCore.transition` and inline at
:func:`~repro.devices.disk.disk_step`'s idle<->active switches; a
what-if copy does not.

The machine is *pull-based*: callers advance it to an absolute time with
:meth:`PowerStateMachine.advance_to`, then query or mutate state.  This
matches how the replay simulator uses devices — they only need to be
accurate at request boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, TypeVar

from repro.sim.metrics import EnergyMeter
from repro.units import Joules, Seconds, Watts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule

#: (src, dst) -> (time, energy, default bucket, dst power, dst bucket)
TransitionTable = dict[tuple[str, str], tuple[float, float, str, float, str]]

#: One burst of packed requests for a device's run
#: (:func:`~repro.devices.disk.disk_run`,
#: :func:`~repro.devices.wnic.wnic_run`): requests ``lo:hi`` of the
#: (sizes, read mask, disk blocks, block counts) columns.
PackedBurst = tuple[Sequence[int], Sequence[bool], Sequence[int | None],
                    Sequence[int], int, int]

_C = TypeVar("_C", bound="PowerCore")
_M = TypeVar("_M", bound="PowerStateMachine")


@cache
def _slot_names(cls: type) -> tuple[str, ...]:
    return tuple(name for klass in cls.__mro__
                 for name in getattr(klass, "__slots__", ()))


@dataclass(frozen=True, slots=True)
class StateSpec:
    """A named power state drawing ``power`` watts while resident."""

    name: str
    power: Watts

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError(f"state {self.name!r} has negative power")


@dataclass(frozen=True, slots=True)
class TransitionSpec:
    """A legal transition taking ``time`` seconds and ``energy`` joules."""

    src: str
    dst: str
    time: float
    energy: Joules

    def __post_init__(self) -> None:
        if self.time < 0 or self.energy < 0:
            raise ValueError(
                f"transition {self.src}->{self.dst} has negative cost")


class PowerCore(EnergyMeter):
    """A machine's operating point: its meter plus state and DPM timers.

    ``counts`` tallies the transitions made through :meth:`transition`
    by bucket.  ``state_seconds`` holds the seconds spent in each state
    before ``state_since``, the time of the last state change; it is
    ``None`` on a what-if copy, as estimation only reads energy deltas.
    ``transitions`` is the machine's immutable table, shared by
    reference.
    """

    __slots__ = ("name", "state", "last_activity", "busy_until",
                 "counts", "state_seconds", "state_since", "transitions")

    def __init__(self, name: str, transitions: TransitionTable,
                 state: str, power: Watts, start_time: Seconds) -> None:
        super().__init__(start_time)
        self.name = name
        self.transitions = transitions
        self.state = state
        self.last_activity = start_time
        #: time until which the device is committed (transition/transfer).
        self.busy_until = start_time
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.state_seconds: defaultdict[str, float] | None = \
            defaultdict(float)
        self.state_since = start_time
        self.set_power(start_time, power, f"{name}.{state}")

    def what_if(self: _C) -> _C:
        """A copy at this operating point for what-if simulation.

        The copy's meter starts fresh at this clock and draw (its bucket
        is the state's own), and it accrues no residency.
        """
        new = object.__new__(type(self))
        for name in _slot_names(type(self)):
            setattr(new, name, getattr(self, name))
        new._bucket = f"{self.name}.{self.state}"
        new._energy = defaultdict(float)
        new.counts = defaultdict(int)
        new.state_seconds = None
        return new

    def accrue(self) -> None:
        """Start accruing residency from this core's clock."""
        self.state_seconds = defaultdict(float)
        self.state_since = self._last_time

    def transition(self, time: float, dst: str,
                   bucket: str | None = None) -> float:
        """Perform the ``state -> dst`` transition starting at ``time``.

        Energy cost is added as an impulse; the machine is busy (and in
        the destination state's power draw) until ``time +
        transition.time``.  Returns the completion time.
        """
        info = self.transitions.get((self.state, dst))
        if info is None:
            raise ValueError(
                f"{self.name}: illegal transition {self.state!r}->{dst!r}")
        tr_time, tr_energy, default_bucket, dst_power, dst_bucket = info
        bucket = bucket or default_bucket
        seconds = self.state_seconds
        if seconds is not None:
            # The change is stamped at max(time, last change); a repeated
            # state is no change.
            since = self.state_since
            if time < since - 1e-9:
                raise ValueError(f"{self.name}: state change at {time}"
                                 f" before the last one at {since}")
            if time > since and dst != self.state:
                seconds[self.state] += time - since
                self.state_since = time
        # The datasheet impulse covers the whole switching window, so no
        # supplemental draw is charged during [time, done); the
        # destination state's power applies from completion.
        self.advance(time)
        self._energy[bucket] += tr_energy
        self.counts[bucket] += 1
        done = time + tr_time
        if done > self._last_time:
            self._last_time = done
        self._power = dst_power
        self._bucket = dst_bucket
        self.state = dst
        if done > self.busy_until:
            self.busy_until = done
        return done


class PowerStateMachine:
    """Power/energy bookkeeping shared by the device models.

    Subclasses pick their core class (``_core_type``), override
    :meth:`advance_to` with their step's DPM timeouts, and call
    :meth:`transition` / :meth:`set_state_power` from their fault paths.
    """

    _core_type: type[PowerCore] = PowerCore

    def __init__(self, name: str, states: list[StateSpec],
                 transitions: list[TransitionSpec], initial_state: str,
                 start_time: Seconds = 0.0) -> None:
        self.name = name
        by_name = {s.name: s for s in states}
        if len(by_name) != len(states):
            raise ValueError("duplicate state names")
        if initial_state not in by_name:
            raise ValueError(f"unknown initial state {initial_state!r}")
        for t in transitions:
            if t.src not in by_name or t.dst not in by_name:
                raise ValueError(
                    f"transition {t.src}->{t.dst} references unknown state")
        self._state_powers = {s.name: s.power for s in states}
        self._state_buckets = {s.name: f"{name}.{s.name}" for s in states}
        table: TransitionTable = {
            (t.src, t.dst): (t.time, t.energy, f"{name}.{t.src}->{t.dst}",
                             self._state_powers[t.dst],
                             self._state_buckets[t.dst])
            for t in transitions}
        self.core = self._core_type(name, table, initial_state,
                                    by_name[initial_state].power,
                                    start_time)
        #: injected-fault timeline (None = the paper's fault-free devices).
        self._faults: FaultSchedule | None = None

    def set_fault_schedule(self, faults: FaultSchedule | None) -> None:
        """Attach an injected-fault timeline to this device."""
        self._faults = faults

    # -- cloning for what-if estimation ---------------------------------
    def clone(self: _M) -> _M:
        """Cheap copy for offline what-if simulation (FlexFetch §2.2).

        The clone carries the machine's *current* operating point
        (state, power draw, DPM timers, head position) but a fresh
        meter and residency — estimation only ever reads energy deltas,
        and copying the full history made cloning O(run length).  It
        is blind to the fault schedule: estimation must neither consume
        fault state nor foresee failures.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.core = self.core.what_if()
        new.core.accrue()
        new._faults = None
        return new

    # -- state accessors -------------------------------------------------
    @property
    def meter(self) -> PowerCore:
        """The core, read as the machine's energy meter."""
        return self.core

    @property
    def state(self) -> str:
        return self.core.state

    @property
    def busy_until(self) -> Seconds:
        """Absolute time at which the current commitment ends."""
        return self.core.busy_until

    @property
    def last_activity(self) -> float:
        """Time of the most recent demand activity (for DPM timeouts)."""
        return self.core.last_activity

    def energy(self, upto: float | None = None) -> Joules:
        """Total joules consumed, optionally extended to time ``upto``."""
        return self.core.total(upto)

    def residency(self, end_time: Seconds) -> dict[str, float]:
        """Seconds per state from start to ``end_time``: the accrued
        seconds plus the open segment.  ``end_time`` may not precede the
        last state change (a run ends past every busy horizon)."""
        core = self.core
        seconds = core.state_seconds
        since = core.state_since
        if seconds is None or end_time < since:
            raise ValueError(f"{self.name}: no residency up to {end_time}"
                             f" (last state change at {since})")
        out = dict(seconds)
        if end_time > since:
            out[core.state] = out.get(core.state, 0.0) + (end_time - since)
        return out

    # -- time advancement -------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Advance the machine to absolute ``time``.

        Times earlier than the machine's committed horizon are legal —
        a device can be busy past the simulation clock when requests
        queue behind a transfer or a mode transition — and are clamped
        (the machine never rewinds).  Devices override this with their
        DPM timeouts.
        """
        self.core.advance(time)

    # -- transitions -------------------------------------------------------
    def transition(self, time: float, dst: str, *,
                   bucket: str | None = None) -> float:
        """:meth:`PowerCore.transition` on this machine's core."""
        return self.core.transition(time, dst, bucket)

    def set_state_power(self, time: float) -> None:
        """Re-assert the current state's nominal power draw at ``time``."""
        state = self.core.state
        self.core.set_power(time, self._state_powers[state],
                            self._state_buckets[state])

    def note_activity(self, time: float) -> None:
        """Record demand activity (resets DPM idle timers)."""
        if time > self.core.last_activity:
            self.core.last_activity = time

    def mark_busy_until(self, time: float) -> None:
        """Extend the busy horizon (queueing of back-to-back requests)."""
        if time > self.core.busy_until:
            self.core.busy_until = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} state={self.state}"
                f" E={self.energy():.2f}J>")
