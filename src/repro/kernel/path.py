"""The read/write system-call service path.

:class:`KernelPath` is the one live kernel object: it owns the page
cache, readahead and write-back, and every syscall the workload layer
replays walks it:

1. the demand byte range becomes a page range;
2. readahead may widen it (two-window policy, <= 32 pages), up to the
   file's last page in the :class:`~repro.devices.layout.DiskLayout`;
3. resident pages are subtracted — "applications' requests for data that
   are resident in system buffer cache should not incur accesses to
   storage devices" (§2.1);
4. the remaining miss runs are split at the 128 KB window, C-SCAN
   ordered by their disk blocks, installed in the cache in that order,
   and returned as device-agnostic extents — routing them to the disk
   or the WNIC is the *policy's* job, which is the whole point of the
   paper;
5. writes dirty pages and return, as extents, the dirty pages their
   insertion evicted; laptop-mode flushes piggy-back on an active disk.

Steps 1-4 are one pass over plain ints: one readahead call, one
:meth:`~repro.kernel.cache.TwoQCache.scan_window`, an
:class:`~repro.kernel.page.Extent` and an ``insert_run`` for each
fetch.  Installing at read time rather than when each device transfer
completes is exact: nothing between a read and its transfers' ends
asks the cache about residency, and the dirty pages a fetch evicts are
dropped either way (DESIGN.md §6).  The layout is the only file table;
the kernel (layer 2) reads it from the device layer below and never
touches a device itself.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet

from repro.devices.layout import DiskLayout
from repro.kernel.cache import TwoQCache
from repro.kernel.page import Extent, pages_of_range, runs_from_pages
from repro.kernel.readahead import TwoWindowReadahead
from repro.kernel.writeback import LaptopModeWriteback
from repro.units import Bytes, Seconds


class KernelPath:
    """The in-kernel journey of one syscall, cache to device queue.

    Parameters
    ----------
    memory_bytes:
        Page-cache capacity.
    layout:
        Placement of every file a read may touch: its page count bounds
        readahead and its blocks order the fetches (C-SCAN).
    """

    def __init__(self, memory_bytes: Bytes, layout: DiskLayout) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.cache = TwoQCache(max(1, memory_bytes // 4096))
        self.readahead = TwoWindowReadahead()
        self.writeback = LaptopModeWriteback(self.cache)
        self.layout = layout
        #: C-SCAN sweep position: the block of the last fetch dispatched
        #: by a read with several fetches.
        self.head = 0

    # -- syscall entry points ------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: Bytes,
             now: Seconds) -> list[Extent]:
        """Service a ``read()`` syscall; returns its device fetches.

        The fetches are the non-resident pages of the demand pages plus
        their readahead window, as extents of at most
        ``readahead.max_pages`` pages in C-SCAN order: those at or past
        the head first, then the wrap.  The demand pages count as cache
        hits or misses in ``cache.stats``.  Each fetch is installed in
        the cache, in that order, before the read returns; the dirty
        pages an install evicts are dropped (DESIGN.md §6).
        """
        placed = self.layout.get(inode)
        # Inline of pages_of_range (same validation, no Extent built).
        if offset < 0 or size < 0:
            raise ValueError("negative offset or size")
        if size == 0:
            return []
        start = offset // 4096
        end = (offset + size - 1) // 4096 + 1
        readahead = self.readahead
        window_end = readahead.window_end(pid, inode, start, end,
                                          placed.nblocks)
        runs = self.cache.scan_window(inode, start, window_end,
                                      start, end)[1]
        fetches: list[Extent] = []
        max_pages = readahead.max_pages
        for run_start, run_end in runs:
            while run_end - run_start > max_pages:
                fetches.append(Extent(inode, run_start, max_pages))
                run_start += max_pages
            fetches.append(Extent(inode, run_start, run_end - run_start))
        if len(fetches) > 1:
            # One file's fetches ascend on the platter, so a stable sort
            # on "behind the head" is the C-SCAN order (block < head,
            # block).
            base, head = placed.start_block, self.head
            fetches.sort(key=lambda e: base + e.start < head)
            self.head = base + fetches[-1].start
        insert_run = self.cache.insert_run
        for extent in fetches:
            insert_run(inode, extent.start, extent.end)
        return fetches

    def write(self, pid: int, inode: int, offset: int, size: Bytes,
              now: Seconds) -> list[Extent]:
        """Dirty the pages of a write; returns forced-eviction extents
        that must hit a device immediately (memory pressure).

        Deferred write-back is :meth:`plan_writeback`'s job.
        """
        demand = pages_of_range(inode, offset, size)
        if demand is None:
            return []
        flushed = self.cache.write_run(inode, demand.start, demand.end, now)
        return runs_from_pages(flushed) if flushed else []

    def plan_writeback(self, now: Seconds, *,
                       disk_active: bool) -> list[Extent]:
        """Laptop-mode opportunistic flush plan (empty if nothing due)."""
        return self.writeback.plan_flush(now, disk_active=disk_active)

    # -- profile support (§2.3.2) --------------------------------------
    def resident_bytes(self, inode: int, offset: int, size: int) -> Bytes:
        """Bytes of the range currently resident in the cache.

        FlexFetch's cache filter uses this to drop profiled requests that
        would be buffer-cache hits from its device cost estimates.
        """
        # Inline of pages_of_range (same validation, no Extent built):
        # FlexFetch's cache filter calls this per profiled request.
        if offset < 0 or size < 0:
            raise ValueError("negative offset or size")
        if size == 0:
            return 0
        return self.cache.resident_count(
            inode, offset // 4096, (offset + size - 1) // 4096 + 1) * 4096

    def resident_inodes(self) -> AbstractSet[int]:
        """Inodes outside which :meth:`resident_bytes` is 0: every inode
        the cache ever installed pages of."""
        return self.cache.resident_inodes()
