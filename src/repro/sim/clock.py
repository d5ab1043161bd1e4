"""Time and size units for the simulation.

The whole reproduction uses a single convention:

* **time** — float seconds (:data:`repro.units.Seconds`),
* **data** — integer bytes (:data:`repro.units.Bytes`),
* **bandwidth** — bytes per second (helpers convert from the megabit
  figures the paper quotes),
* **power/energy** — watts / joules.

Keeping the conversions in one place avoids the classic Mb-vs-MB mistake:
the paper's WNIC is 11 **megabit**/s while the disk moves 35 **megabyte**/s,
a 25x gap that drives most of its results.  The conversion arithmetic
itself lives in :mod:`repro.units`; this module keeps the short,
simulator-facing names.
"""

from __future__ import annotations

from repro.units import (
    Bytes,
    BytesPerSecond,
    Seconds,
    megabits_per_second,
    megabytes_per_second,
)

# Data sizes (binary, as the paper's "128KB prefetching window" is 2**17).
KB: Bytes = 1024
MB: Bytes = 1024 * 1024
GB: Bytes = 1024 * 1024 * 1024

# Time fractions of a second.
MSEC: Seconds = 1e-3
USEC: Seconds = 1e-6


class SimulationError(RuntimeError):
    """Raised on misuse of a replay session or a broken run invariant."""


def Mbps(megabits: float) -> BytesPerSecond:
    """Convert a *megabit-per-second* figure to bytes per second.

    Network equipment (and the paper) uses decimal megabits:
    ``Mbps(11)`` -> 1 375 000 bytes/s for the Aironet 350.
    """
    return megabits_per_second(megabits)


def MBps(megabytes: float) -> BytesPerSecond:
    """Convert a *megabyte-per-second* disk bandwidth to bytes per second."""
    return megabytes_per_second(megabytes)


def bytes_per_second(*, megabits: float | None = None,
                     megabytes: float | None = None) -> BytesPerSecond:
    """Convert either a megabit or a megabyte figure to bytes/second.

    Exactly one of the keyword arguments must be given; this is the
    explicit-units front door used by configuration code.
    """
    if (megabits is None) == (megabytes is None):
        raise ValueError("pass exactly one of megabits= or megabytes=")
    if megabits is not None:
        return megabits_per_second(megabits)
    assert megabytes is not None
    return megabytes_per_second(megabytes)
