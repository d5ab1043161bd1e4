"""Shared simulation environment: devices, kernel path, cost model.

:class:`MobileSystem` wires the bottom layers together for one replay —
the two storage devices, the disk layout, the kernel path
(cache/readahead/write-back/C-SCAN) and the shared
:class:`~repro.core.costmodel.CostModel` every policy estimates with.
It owns no policy logic and no replay loop; those live in the routing
and session layers above.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.decision import DataSource
from repro.devices.disk import HardDisk
from repro.devices.dpm import SpindownPolicy
from repro.devices.layout import DiskLayout
from repro.devices.service import (
    DeviceService,
    DiskService,
    WnicService,
)
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.devices.wnic import WirelessNic
from repro.kernel.path import KernelPath
from repro.sim.clock import MB
from repro.sim.plan import BurstPlan, PlanCursor
from repro.units import Bytes, Seconds


class MobileSystem:
    """Shared environment: devices, kernel path, and disk layout.

    Given a :class:`~repro.sim.plan.BurstPlan`, the kernel surface is a
    :class:`~repro.sim.plan.PlanCursor` over it and the layout is the
    plan's.  Otherwise the live kernel path reads the placed ``layout``
    (the session passes the shared one from
    :func:`~repro.sim.plan.layout_for`).
    """

    def __init__(self, *, disk_spec: DiskSpec = HITACHI_DK23DA,
                 wnic_spec: WnicSpec = AIRONET_350,
                 memory_bytes: Bytes = 64 * MB,
                 spindown_policy: SpindownPolicy | None = None,
                 plan: BurstPlan | None = None,
                 layout: DiskLayout | None = None) -> None:
        self.disk = HardDisk(disk_spec, spindown_policy=spindown_policy)
        self.wnic = WirelessNic(wnic_spec)
        self.kernel: KernelPath | PlanCursor
        if plan is not None:
            # A plan was walked at this memory size and seed: it already
            # placed the trace's files, and its cursor answers for the
            # kernel path.
            self.layout = plan.layout
            self.kernel = PlanCursor(plan)
        elif layout is not None:
            self.layout = layout
            self.kernel = KernelPath(memory_bytes, layout)
        else:
            raise ValueError("need a placed layout or a burst plan")
        # -- layer seams over the raw devices --------------------------
        self.cost_model = CostModel(self.disk, self.wnic, self.layout)
        self._services: dict[DataSource, DeviceService] = {
            DataSource.DISK: DiskService(self.disk, self.layout),
            DataSource.NETWORK: WnicService(self.wnic),
        }

    def service_for(self, source: DataSource) -> DeviceService:
        """The device service a request routed to ``source`` runs on."""
        return self._services[source]

    def advance(self, now: Seconds) -> None:
        """Advance both devices (DPM timers fire as needed)."""
        self.disk.advance_to(now)
        self.wnic.advance_to(now)
