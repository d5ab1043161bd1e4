"""Deprecated home of the replay simulator (use the session facade).

The monolithic ``ReplaySimulator`` was decomposed into explicit layers:

* workload drivers   -> :mod:`repro.core.workload`
* kernel path        -> :mod:`repro.kernel.path`
* device services    -> :mod:`repro.devices.service`
* policy routing     -> :mod:`repro.core.routing`
* telemetry / result -> :mod:`repro.core.telemetry`
* the wiring         -> :class:`repro.core.session.SimulationSession`

New code should construct a :class:`~repro.core.session.SimulationSession`
directly.  This module keeps the old names importable —
``ReplaySimulator``, ``ProgramSpec``, ``RunResult``, ``MobileSystem`` —
with identical behaviour (bit-for-bit identical results for identical
seeds), as a thin shim over the session.
"""

from __future__ import annotations

import warnings

from repro.core.policies import Policy
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramDriver, ProgramSpec
from repro.devices.dpm import SpindownPolicy
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.faults.schedule import FaultSchedule
from repro.sim.clock import MB
from repro.units import Bytes

__all__ = [
    "MobileSystem",
    "ProgramSpec",
    "ReplaySimulator",
    "RunResult",
]

#: old private name, kept for introspection-heavy callers.
_ProgramState = ProgramDriver


class ReplaySimulator(SimulationSession):
    """Deprecated alias of :class:`SimulationSession`.

    Unlike the lazily materialised session, the legacy constructor built
    the whole environment eagerly (``sim.env``, ``sim.programs`` were
    inspectable before ``run()``, and an empty program list raised at
    construction).  The shim preserves that by materialising in
    ``__init__``.
    """

    def __init__(self, programs: list[ProgramSpec], policy: Policy, *,
                 disk_spec: DiskSpec = HITACHI_DK23DA,
                 wnic_spec: WnicSpec = AIRONET_350,
                 memory_bytes: Bytes = 64 * MB,
                 seed: int = 0,
                 spindown_policy: SpindownPolicy | None = None,
                 faults: FaultSchedule | None = None) -> None:
        # stacklevel=2: report the *caller's* construction site, not
        # this __init__, so the warning is actionable from the console.
        warnings.warn(
            "ReplaySimulator is deprecated; construct"
            " repro.core.session.SimulationSession instead",
            DeprecationWarning, stacklevel=2)
        super().__init__(programs, policy, disk_spec=disk_spec,
                         wnic_spec=wnic_spec, memory_bytes=memory_bytes,
                         seed=seed, spindown_policy=spindown_policy,
                         faults=faults)
        self._materialise()
