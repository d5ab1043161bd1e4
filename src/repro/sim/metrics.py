"""Energy and state-residency accounting.

Devices report *which state they are in*; these meters turn that into
joules and per-state residency seconds by integrating power over time.
Transition costs (spin-up energy, mode-switch energy) are added as
impulses via :meth:`EnergyMeter.add_impulse` so the per-cause breakdown in
the experiment reports stays exact.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterator
from repro.units import ABS_TOLERANCE, Joules, Seconds, Watts


class StateTimeline:
    """Append-only record of ``(time, state)`` changes.

    Useful for debugging policies (e.g. verifying the disk really stayed
    spun down through a make compile gap) and for residency assertions in
    tests.  Consecutive duplicate states are coalesced.
    """

    def __init__(self, initial_state: str, start_time: Seconds = 0.0) -> None:
        self._times: list[float] = [start_time]
        self._states: list[str] = [initial_state]

    def record(self, time: float, state: str) -> None:
        """Record that the state became ``state`` at ``time``."""
        if time < self._times[-1] - 1e-9:
            raise ValueError(
                f"timeline must be monotonic: {time} < {self._times[-1]}")
        if state == self._states[-1]:
            return
        self._times.append(max(time, self._times[-1]))
        self._states.append(state)

    def segments(self, end_time: Seconds) -> Iterator[tuple[float, float, str]]:
        """Yield ``(start, end, state)`` segments up to ``end_time``."""
        for i, (t, s) in enumerate(zip(self._times, self._states, strict=True)):
            t_next = self._times[i + 1] if i + 1 < len(self._times) else end_time
            if t_next > t:
                yield (t, min(t_next, end_time), s)
            if t_next >= end_time:
                break

    def residency(self, end_time: Seconds) -> dict[str, float]:
        """Seconds spent in each state from start to ``end_time``.

        The sum over :meth:`segments`, in the same order, written as a
        plain loop: a run's timeline has thousands of segments.
        """
        times = self._times
        states = self._states
        last = len(times) - 1
        out: dict[str, float] = {}
        for i, t in enumerate(times):
            t_next = times[i + 1] if i < last else end_time
            if t_next > t:
                state = states[i]
                end = end_time if end_time < t_next else t_next
                out[state] = out.get(state, 0.0) + (end - t)
            if t_next >= end_time:
                break
        return out

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class TimeWeightedStat:
    """Running time-weighted mean of a piecewise-constant signal."""

    last_time: Seconds = 0.0
    last_value: float = 0.0
    weighted_sum: float = 0.0
    total_time: Seconds = 0.0

    def update(self, time: float, value: float) -> None:
        """Signal changed to ``value`` at ``time``."""
        if time < self.last_time:
            raise ValueError(f"time went backwards: {time} < {self.last_time}")
        dt = time - self.last_time
        self.weighted_sum += self.last_value * dt
        self.total_time += dt
        self.last_time = time
        self.last_value = value

    def mean(self, now: float | None = None) -> float:
        """Time-weighted mean, optionally extending the last value to ``now``."""
        ws, tt = self.weighted_sum, self.total_time
        if now is not None and now > self.last_time:
            ws += self.last_value * (now - self.last_time)
            tt += now - self.last_time
        return ws / tt if tt > 0 else 0.0


class EnergyMeter:
    """Integrates a device's power draw into joules.

    The meter holds the *current power* (watts).  ``advance(t)`` integrates
    the current power over ``[last_t, t]``; ``set_power`` changes the draw
    going forward; ``add_impulse`` adds a lump-sum energy cost such as a
    spin-up.  Energy is attributed to named buckets so reports can split
    e.g. ``disk.active`` vs ``disk.spinup``.
    """

    __slots__ = ("_last_time", "_power", "_bucket", "_energy")

    def __init__(self, start_time: Seconds = 0.0) -> None:
        self._last_time = float(start_time)
        self._power = 0.0
        self._bucket = "init"
        self._energy: dict[str, float] = defaultdict(float)

    # -- integration ---------------------------------------------------
    def advance(self, time: float) -> None:
        """Integrate current power up to ``time``.

        Earlier times are clamped (the meter never rewinds); this keeps
        the meter safe under the out-of-order queries device queueing
        produces.
        """
        # Hot path: equivalent to the clamped-dt/is_zero form (power is
        # never negative — set_power rejects it), minus the call overhead.
        last = self._last_time
        if time > last:
            power = self._power
            if power > ABS_TOLERANCE:
                self._energy[self._bucket] += power * (time - last)
            self._last_time = time

    def set_power(self, time: float, watts: Watts, bucket: str) -> None:
        """Advance to ``time`` then change the draw to ``watts``."""
        if watts < 0:
            raise ValueError(f"negative power: {watts}")
        last = self._last_time
        if time > last:
            power = self._power
            if power > ABS_TOLERANCE:
                self._energy[self._bucket] += power * (time - last)
            self._last_time = time
        self._power = watts
        self._bucket = bucket

    def add_impulse(self, joules: Joules, bucket: str) -> None:
        """Add a lump-sum energy cost (e.g. a spin-up) to ``bucket``."""
        if joules < 0:
            raise ValueError(f"negative impulse: {joules}")
        self._energy[bucket] += joules

    # -- readout ---------------------------------------------------------
    @property
    def last_time(self) -> Seconds:
        return self._last_time

    def total(self, upto: float | None = None) -> float:
        """Total joules, optionally integrating the tail up to ``upto``."""
        if upto is not None and upto > self._last_time:
            return sum(self._energy.values()) \
                + self._power * (upto - self._last_time)
        return sum(self._energy.values())

    def breakdown(self) -> dict[str, float]:
        """Joules per named bucket (copy)."""
        return dict(self._energy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EnergyMeter t={self._last_time:.3f}"
                f" P={self._power:.3f}W E={self.total():.3f}J>")
