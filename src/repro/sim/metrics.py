"""Energy accounting.

Devices report *which state they are in*; these meters turn that into
joules by integrating power over time (the seconds per state accrue on
the device's power core, :mod:`repro.devices.power`).  Transition costs
(spin-up energy, mode-switch energy) are added as impulses via
:meth:`EnergyMeter.add_impulse` so the per-cause breakdown in the
experiment reports stays exact.
"""

from __future__ import annotations

from collections import defaultdict

from repro.units import ABS_TOLERANCE, Joules, Seconds, Watts


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
