"""Kernel path layer: the VFS/cache/readahead/write-back pipeline.

The pieces — page cache, readahead, write-back, the C-SCAN elevator —
already live in this package; :class:`KernelPath` is the seam that used
to be hand-wired inside the replay simulator.  Every syscall the
workload layer replays walks this object: reads become miss extents
(after cache subtraction and readahead) ordered for the disk arm,
writes become forced-eviction extents, and laptop-mode flushes
piggy-back on an active disk.

Disk placement is injected as a ``locate`` callable (extent -> start
block) so the kernel layer stays below the policy/core layers and free
of their types; the :class:`~repro.core.system.MobileSystem` wires it
to the :class:`~repro.devices.layout.DiskLayout`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.kernel.page import Extent
from repro.kernel.scheduler import CScanScheduler, DiskExtent
from repro.kernel.vfs import VirtualFileSystem
from repro.units import Bytes, Seconds


class KernelPath:
    """The in-kernel journey of one syscall, cache to device queue."""

    def __init__(self, vfs: VirtualFileSystem, scheduler: CScanScheduler,
                 locate: Callable[[Extent], int]) -> None:
        self.vfs = vfs
        self.scheduler = scheduler
        self._locate = locate

    # -- syscall entry points ------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: Bytes,
             now: Seconds) -> list[Extent]:
        """Cache/readahead a read; returns its miss extents in C-SCAN
        order by their disk placement (only these reach a device)."""
        fetches = self.vfs.read(pid, inode, offset, size, now)
        if len(fetches) <= 1:
            return fetches
        requests = [DiskExtent(extent=e, start_block=self._locate(e))
                    for e in fetches]
        return [r.extent for r in self.scheduler.order(requests)]

    def write(self, pid: int, inode: int, offset: int, size: Bytes,
              now: Seconds) -> list[Extent]:
        """Dirty the pages of a write; returns forced-eviction extents
        that must hit a device immediately (memory pressure)."""
        return self.vfs.write(pid, inode, offset, size, now)

    def plan_writeback(self, now: Seconds, *,
                       disk_active: bool) -> list[Extent]:
        """Laptop-mode opportunistic flush plan (empty if nothing due)."""
        return self.vfs.plan_writeback(now, disk_active=disk_active)

    def complete_fetch(self, extent: Extent, now: Seconds) -> list[Extent]:
        """A device finished fetching ``extent``; populate the cache."""
        return self.vfs.complete_fetch(extent, now)
