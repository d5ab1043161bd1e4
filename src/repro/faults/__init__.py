"""Fault injection and runtime invariant checking.

The paper's evaluation assumes a perfect wireless link and a disk whose
spin-ups always succeed.  This package removes that assumption: a
seeded, deterministic :class:`FaultSchedule` injects link outages,
802.11b rate fallback, and disk spin-up failures into the device models,
and every replay — faulted or not — audits its physical invariants
(:mod:`repro.faults.invariants`), raising
:class:`SimulationInvariantError` when one breaks.
"""

from repro.faults.chaos import CacheChaos, ChaosInjector, ChaosSpec
from repro.faults.invariants import (
    SimulationInvariantError,
    check_coverage,
    check_result,
    check_service,
)
from repro.faults.schedule import (
    FALLBACK_RATES_BPS,
    FaultSchedule,
    FaultSpec,
    FaultSpecError,
    RateWindow,
)

__all__ = [
    "FALLBACK_RATES_BPS",
    "CacheChaos",
    "ChaosInjector",
    "ChaosSpec",
    "FaultSchedule",
    "FaultSpec",
    "FaultSpecError",
    "RateWindow",
    "SimulationInvariantError",
    "check_coverage",
    "check_result",
    "check_service",
]
