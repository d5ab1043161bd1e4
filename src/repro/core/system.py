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
from repro.devices.disk import DiskState, HardDisk
from repro.devices.dpm import SpindownPolicy
from repro.devices.layout import BLOCK_SIZE, DiskLayout
from repro.devices.service import (
    DeviceService,
    DiskService,
    WnicService,
)
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.devices.wnic import WirelessNic
from repro.kernel.page import Extent
from repro.kernel.path import KernelPath
from repro.kernel.scheduler import CScanScheduler
from repro.kernel.vfs import VirtualFileSystem
from repro.sim.clock import MB
from repro.sim.plan import BurstPlan, PlanCursor
from repro.traces.compile import CompiledTrace
from repro.traces.trace import Trace
from repro.units import Bytes, Seconds

_STANDBY = DiskState.STANDBY.value


class MobileSystem:
    """Shared environment: devices, kernel path, and disk layout.

    Given a :class:`~repro.sim.plan.BurstPlan`, the kernel surface is a
    :class:`~repro.sim.plan.PlanCursor` over it and the layout is the
    plan's; no trace is registered then.
    """

    def __init__(self, *, disk_spec: DiskSpec = HITACHI_DK23DA,
                 wnic_spec: WnicSpec = AIRONET_350,
                 memory_bytes: Bytes = 64 * MB,
                 seed: int = 0,
                 spindown_policy: SpindownPolicy | None = None,
                 plan: BurstPlan | None = None) -> None:
        self.disk = HardDisk(disk_spec, spindown_policy=spindown_policy)
        self.wnic = WirelessNic(wnic_spec)
        self.vfs: VirtualFileSystem | PlanCursor
        self.kernel: KernelPath | PlanCursor
        if plan is None:
            self.vfs = VirtualFileSystem(memory_bytes)
            self.layout = DiskLayout(seed)
            self.kernel = KernelPath(self.vfs, CScanScheduler(),
                                     self._locate)
        else:
            # A plan was walked at this memory size and seed: it already
            # placed the trace's files, and its cursor answers for the
            # cache, readahead, elevator and VFS.
            self.layout = plan.layout
            self.vfs = self.kernel = PlanCursor(plan)
        # -- layer seams over the raw devices --------------------------
        self.cost_model = CostModel(self.disk, self.wnic, self.layout)
        self._services: dict[DataSource, DeviceService] = {
            DataSource.DISK: DiskService(self.disk, self.layout),
            DataSource.NETWORK: WnicService(self.wnic),
        }

    def _locate(self, extent: Extent) -> int:
        """Disk start block of an extent (the kernel path's elevator
        and the disk service both key off the same layout)."""
        return self.layout.block_of(extent.inode,
                                    extent.start * BLOCK_SIZE)

    def service_for(self, source: DataSource) -> DeviceService:
        """The device service a request routed to ``source`` runs on."""
        return self._services[source]

    def register_trace(self, *traces: Trace | CompiledTrace) -> None:
        """Make the traces' files known to the VFS and the disk layout.

        The union of the file tables is placed once, in order of first
        appearance, each inode at the largest size any trace declares
        for it (programs may share a file; strace-derived traces size
        it by its furthest touched byte).  Within a trace the order is
        ascending inode either way: the compiled file table is stored
        inode-sorted at compile time, matching the sort the
        record-level path performs here — layout placement (and
        therefore every seek time) depends on that order.
        """
        table: dict[int, Bytes] = {}
        for trace in traces:
            if isinstance(trace, CompiledTrace):
                inodes, sizes = trace.files_view()
                pairs = zip(inodes, sizes, strict=True)
            else:
                pairs = ((info.inode, info.size_bytes) for info in sorted(
                    trace.files.values(), key=lambda f: f.inode))
            for inode, size in pairs:
                if table.get(inode, -1) < size:
                    table[inode] = size
        register = self.vfs.register_file
        for inode, size in table.items():
            register(inode, size)
        self.layout.add_files(table.keys(), table.values())

    @property
    def disk_active(self) -> bool:
        """Disk spinning (idle or active)?"""
        return self.disk.state != _STANDBY

    def advance(self, now: Seconds) -> None:
        """Advance both devices (DPM timers fire as needed)."""
        self.disk.advance_to(now)
        self.wnic.advance_to(now)
