"""Simulation substrate.

This subpackage provides the timing, randomness, replay-plan and
energy-accounting primitives every other layer of the reproduction is
built on (the closed-loop scheduler itself is a small heap inside
:class:`~repro.core.session.SimulationSession`):

* :mod:`repro.sim.clock` — simulation-time helpers, unit conversions
  and :class:`~repro.sim.clock.SimulationError`.
* :mod:`repro.sim.plan` — memoised BurstPlans of the kernel path and the
  :class:`~repro.sim.plan.PlanCursor` that replays them.
* :mod:`repro.sim.rng` — reproducible per-component random streams.
* :mod:`repro.sim.metrics` — continuous energy integration
  (:class:`~repro.sim.metrics.EnergyMeter`).

All times are float seconds; all energies are joules; all powers are watts.
"""

from repro.sim.clock import (
    KB,
    MB,
    GB,
    MSEC,
    USEC,
    Mbps,
    bytes_per_second,
    SimulationError,
)
from repro.sim.metrics import EnergyMeter
from repro.sim.rng import child_seed, make_rng

__all__ = [
    "KB",
    "MB",
    "GB",
    "MSEC",
    "USEC",
    "Mbps",
    "bytes_per_second",
    "SimulationError",
    "EnergyMeter",
    "child_seed",
    "make_rng",
]
