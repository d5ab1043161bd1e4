"""Per-stage (time, energy) what-if estimation (§2.2) — compat shim.

The estimation machinery moved into the shared
:class:`~repro.core.costmodel.CostModel`; this module keeps the old
function-style surface importable.  ``estimate_stage`` is
:func:`repro.core.costmodel.replay_stage` under its historical name, and
``estimate_both`` is a :meth:`CostModel.stage_pair` over ad-hoc devices
and a profile of the given bursts.
New code should go through ``env.cost_model`` instead of calling these
free functions with raw devices.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.costmodel import (
    CostModel,
    ResidencyOracle,
    StageEstimate,
    filter_cached,
    replay_stage,
)
from repro.devices.disk import HardDisk
from repro.devices.layout import DiskLayout
from repro.devices.wnic import WirelessNic
from repro.core.burst import IOBurst
from repro.core.profile import ExecutionProfile
from repro.units import Seconds

__all__ = [
    "StageEstimate",
    "estimate_both",
    "estimate_stage",
    "filter_cached",
]

#: old private name for the residency protocol.
_ResidencyOracle = ResidencyOracle

#: historical name of :func:`repro.core.costmodel.replay_stage`.
estimate_stage = replay_stage


def estimate_both(disk: HardDisk, wnic: WirelessNic,
                  bursts: Sequence[IOBurst], thinks: Sequence[float], *,
                  now: Seconds, layout: DiskLayout | None = None,
                  vfs: ResidencyOracle | None = None
                  ) -> tuple[StageEstimate, StageEstimate]:
    """Both scenarios' estimates for one stage, cross-baselines included."""
    profile = ExecutionProfile(bursts, thinks)
    return CostModel(disk, wnic, layout).stage_pair(
        profile, 0, len(profile), now=now, vfs=vfs)
